//! Lock plans: the locking regime a scheduler declares for its run queue(s).
//!
//! Linux 2.3.99 guards all run-queue state with one global `runqueue_lock`,
//! and the paper's 2P/4P results are shaped by that single serialization
//! point (§4, §8). Sharded designs (the §8 multi-queue scheduler, the O(1)
//! scheduler that followed) split the state and its locks per CPU. A
//! [`LockPlan`] lets each [`Scheduler`](crate::Scheduler) declare which
//! regime it is built for, and [`LockDomains`] does the per-call
//! bookkeeping: which domains the current `schedule()`/wakeup call holds,
//! how much extra spin its mid-call acquisitions cost, and the
//! `double_rq_lock` ordering discipline that keeps multi-domain
//! acquisition deadlock-free.
//!
//! The machine owns the [`LockModel`] (the bank
//! of busy-interval domains); schedulers see only the narrow
//! [`DomainLocker`] trait through
//! [`SchedCtx::lock_queue_domain`](crate::SchedCtx::lock_queue_domain),
//! so they can demand "I am about to touch CPU 3's queue" without knowing
//! how queues map onto lock domains.

use core::fmt;
use core::str::FromStr;

use elsc_simcore::lockdomain::LockModel;
use elsc_simcore::spinlock::HolderId;
use elsc_simcore::{Cycles, MAX_CPUS};

/// The locking regime a scheduler wants for its run-queue state.
///
/// The default for every scheduler is [`LockPlan::Global`] — the paper's
/// single `runqueue_lock` — so existing designs are bit-for-bit unchanged.
/// Sharded designs opt in to more domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockPlan {
    /// One lock guards everything (Linux 2.3.99's `runqueue_lock`).
    Global,
    /// One lock per CPU run queue (the §8 multi-queue regime).
    PerCpu,
    /// A fixed number of lock shards, CPUs mapped round-robin.
    Sharded(usize),
    /// One lock per NUMA node: CPUs are chunked `cpus_per_node` at a
    /// time (hierarchical CPU numbering makes chunk == node), so all
    /// queues on a node — the unit a topology-aware scheduler shares
    /// state across — sit under one lock. The payload is the chunk size,
    /// fixed at plan-resolution time from the declared topology, which
    /// keeps the plan `Copy` and the mapping pure arithmetic.
    PerNode(usize),
}

impl LockPlan {
    /// Number of lock domains this plan needs on an `nr_cpus` machine.
    pub fn nr_domains(self, nr_cpus: usize) -> usize {
        match self {
            LockPlan::Global => 1,
            LockPlan::PerCpu => nr_cpus.max(1),
            LockPlan::Sharded(n) => n.max(1),
            LockPlan::PerNode(per) => nr_cpus.max(1).div_ceil(per.max(1)),
        }
    }

    /// The domain guarding `queue_cpu`'s run-queue state.
    pub fn domain_for_cpu(self, queue_cpu: usize, nr_cpus: usize) -> usize {
        match self {
            LockPlan::Global => 0,
            LockPlan::PerCpu => queue_cpu % nr_cpus.max(1),
            LockPlan::Sharded(n) => queue_cpu % n.max(1),
            LockPlan::PerNode(per) => (queue_cpu / per.max(1)).min(
                // Clamp stale CPU ids into the last node's domain so the
                // mapping is total, as the modulo plans are.
                self.nr_domains(nr_cpus) - 1,
            ),
        }
    }

    /// Short label for reports ("global", "percpu", "sharded:N",
    /// "pernode:K" with K the CPUs-per-node chunk).
    pub fn label(self) -> String {
        self.to_string()
    }
}

impl fmt::Display for LockPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockPlan::Global => f.write_str("global"),
            LockPlan::PerCpu => f.write_str("percpu"),
            LockPlan::Sharded(n) => write!(f, "sharded:{n}"),
            LockPlan::PerNode(per) => write!(f, "pernode:{per}"),
        }
    }
}

impl FromStr for LockPlan {
    type Err = String;

    /// Parses `global`, `percpu`, `sharded:N`, or `pernode:K` (N, K ≥ 1,
    /// and N ≤ [`MAX_CPUS`]: a shard past the CPU count is unreachable).
    /// The CLI additionally accepts bare `pernode`, resolving K from the
    /// declared topology before it reaches this parser.
    ///
    /// ```
    /// use elsc_sched_api::LockPlan;
    ///
    /// assert_eq!("global".parse::<LockPlan>(), Ok(LockPlan::Global));
    /// assert_eq!("percpu".parse::<LockPlan>(), Ok(LockPlan::PerCpu));
    /// assert_eq!("sharded:3".parse::<LockPlan>(), Ok(LockPlan::Sharded(3)));
    /// assert_eq!("pernode:8".parse::<LockPlan>(), Ok(LockPlan::PerNode(8)));
    /// assert!("sharded:0".parse::<LockPlan>().is_err());
    /// assert!("sharded:99999999999".parse::<LockPlan>().is_err());
    /// assert!("pernode:0".parse::<LockPlan>().is_err());
    /// assert!("banana".parse::<LockPlan>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "global" => Ok(LockPlan::Global),
            "percpu" => Ok(LockPlan::PerCpu),
            _ => {
                if let Some(n) = s.strip_prefix("sharded:") {
                    let n: usize = n
                        .parse()
                        .map_err(|_| format!("bad shard count in lock plan '{s}'"))?;
                    if n == 0 {
                        return Err("lock plan needs at least one shard".to_string());
                    }
                    if n > MAX_CPUS {
                        return Err(format!(
                            "lock plan '{s}' has more shards than the {MAX_CPUS}-CPU ceiling"
                        ));
                    }
                    Ok(LockPlan::Sharded(n))
                } else if let Some(per) = s.strip_prefix("pernode:") {
                    let per: usize = per
                        .parse()
                        .map_err(|_| format!("bad CPUs-per-node in lock plan '{s}'"))?;
                    if per == 0 {
                        return Err("pernode needs at least one CPU per node".to_string());
                    }
                    Ok(LockPlan::PerNode(per))
                } else {
                    Err(format!(
                        "unknown lock plan '{s}' (expected global, percpu, sharded:N, or pernode:K)"
                    ))
                }
            }
        }
    }
}

/// One mid-call lock-domain acquisition, for the machine's accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DomainAcquire {
    /// Which domain was taken.
    pub domain: usize,
    /// Cycles spent spinning (and transferring the line) for it.
    pub spin: u64,
    /// The instant the acquirer owned it.
    pub at: Cycles,
}

/// What a scheduler may ask of the locking layer mid-call.
///
/// Dyn-safe on purpose: [`SchedCtx`](crate::SchedCtx) carries a
/// `&mut dyn DomainLocker` so the context type does not need a second
/// lifetime for the machine's concrete [`LockDomains`].
pub trait DomainLocker {
    /// Ensures the domain guarding `queue_cpu`'s run queue is held,
    /// given that `elapsed` meter cycles have passed inside the current
    /// scheduler call. No-op if the domain is already held.
    fn acquire_for_cpu(&mut self, queue_cpu: usize, elapsed: u64);
}

/// The set of lock domains one scheduler call holds.
///
/// The machine acquires the call's *home* domain itself (charging its
/// spin to the caller's timeline), then hands the model to `LockDomains`
/// for the duration of the call. Mid-call acquisitions — a multi-queue
/// steal taking a victim CPU's lock — go through [`DomainLocker`]; their
/// spin accumulates in [`extra_spin`](LockDomains::extra_spin) and each
/// one is logged for the machine to fold into stats, the profiler, and
/// the trace after the call returns.
///
/// # Ordering discipline
///
/// Domains are always held in ascending index order (`double_rq_lock`).
/// Acquiring a domain below the highest held one releases everything and
/// retakes the whole set in ascending order; re-taking a just-released
/// domain is free (same holder, no busy interval) but does count as an
/// acquisition, exactly as `double_rq_lock`'s unlock-and-relock does.
pub struct LockDomains<'a> {
    model: &'a mut LockModel,
    plan: LockPlan,
    nr_cpus: usize,
    holder: HolderId,
    /// Time the home domain was owned (the call's cycle origin).
    base: Cycles,
    extra_spin: u64,
    scratch: &'a mut LockScratch,
}

/// Reusable backing storage for a [`LockDomains`] call.
///
/// The machine takes and releases lock domains on every `schedule()` and
/// every wakeup; owning the held-set and acquisition-log buffers here (and
/// lending them per call) keeps that path allocation-free. After
/// [`LockDomains::release_all`] the acquisition log remains readable via
/// [`LockScratch::taken`] until the next call reuses the buffer.
#[derive(Debug, Default)]
pub struct LockScratch {
    /// Held domains, ascending.
    held: Vec<usize>,
    taken: Vec<DomainAcquire>,
}

impl LockScratch {
    /// The mid-call acquisitions logged by the most recent call.
    pub fn taken(&self) -> &[DomainAcquire] {
        &self.taken
    }
}

impl<'a> LockDomains<'a> {
    /// Wraps `model` for one call by `holder` that already owns
    /// `home_domain` since `base`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `home_domain` is not currently held.
    pub fn new(
        model: &'a mut LockModel,
        plan: LockPlan,
        nr_cpus: usize,
        holder: HolderId,
        base: Cycles,
        home_domain: usize,
        scratch: &'a mut LockScratch,
    ) -> Self {
        debug_assert!(
            model.is_held(home_domain),
            "the machine acquires the home domain before delegating"
        );
        scratch.held.clear();
        scratch.taken.clear();
        scratch.held.push(home_domain);
        LockDomains {
            model,
            plan,
            nr_cpus,
            holder,
            base,
            extra_spin: 0,
            scratch,
        }
    }

    /// Spin cycles accumulated by mid-call acquisitions so far.
    pub fn extra_spin(&self) -> u64 {
        self.extra_spin
    }

    /// Domains currently held, in ascending order.
    pub fn held(&self) -> &[usize] {
        &self.scratch.held
    }

    /// Releases every held domain at `at` and returns the log of
    /// mid-call acquisitions for the machine's accounting. The log lives
    /// in the lent [`LockScratch`], so no allocation happens per call.
    pub fn release_all(self, at: Cycles) -> &'a [DomainAcquire] {
        let LockDomains { model, scratch, .. } = self;
        for &d in &scratch.held {
            model.release(d, at);
        }
        &scratch.taken
    }

    /// Acquires `domain` at `now`, logging the acquisition; returns the
    /// owned instant.
    fn take(&mut self, domain: usize, now: Cycles) -> Cycles {
        let owned = self.model.acquire(domain, now, self.holder);
        let spin = owned.saturating_sub(now).get();
        self.extra_spin += spin;
        self.scratch.taken.push(DomainAcquire {
            domain,
            spin,
            at: owned,
        });
        owned
    }
}

impl DomainLocker for LockDomains<'_> {
    fn acquire_for_cpu(&mut self, queue_cpu: usize, elapsed: u64) {
        let domain = self.plan.domain_for_cpu(queue_cpu, self.nr_cpus);
        if self.scratch.held.contains(&domain) {
            return;
        }
        let now = self.base + elapsed + self.extra_spin;
        if self.scratch.held.last().is_some_and(|&h| domain > h) {
            // Already in canonical order: take it directly.
            self.take(domain, now);
            self.scratch.held.push(domain);
        } else {
            // Out of order: double_rq_lock — drop everything, retake the
            // whole set ascending.
            for &d in &self.scratch.held {
                self.model.release(d, now);
            }
            self.scratch.held.push(domain);
            self.scratch.held.sort_unstable();
            let order = core::mem::take(&mut self.scratch.held);
            let mut t = now;
            for &d in &order {
                t = self.take(d, t);
            }
            self.scratch.held = order;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_domain_counts() {
        assert_eq!(LockPlan::Global.nr_domains(4), 1);
        assert_eq!(LockPlan::PerCpu.nr_domains(4), 4);
        assert_eq!(LockPlan::PerCpu.nr_domains(0), 1);
        assert_eq!(LockPlan::Sharded(2).nr_domains(8), 2);
        assert_eq!(LockPlan::Sharded(0).nr_domains(8), 1);
        assert_eq!(LockPlan::PerNode(8).nr_domains(16), 2);
        assert_eq!(LockPlan::PerNode(4).nr_domains(4), 1);
        assert_eq!(LockPlan::PerNode(0).nr_domains(4), 4);
    }

    #[test]
    fn plan_domain_mapping() {
        assert_eq!(LockPlan::Global.domain_for_cpu(3, 4), 0);
        assert_eq!(LockPlan::PerCpu.domain_for_cpu(3, 4), 3);
        assert_eq!(LockPlan::Sharded(2).domain_for_cpu(3, 4), 1);
    }

    #[test]
    fn pernode_plan_chunks_cpus_by_node() {
        // 2N4C2T: 16 CPUs, 8 per node — CPUs 0..8 are node 0, 8..16 node 1.
        let p = LockPlan::PerNode(8);
        for cpu in 0..8 {
            assert_eq!(p.domain_for_cpu(cpu, 16), 0);
        }
        for cpu in 8..16 {
            assert_eq!(p.domain_for_cpu(cpu, 16), 1);
        }
        // Out-of-range queue CPUs clamp into the last domain (total map).
        assert_eq!(p.domain_for_cpu(99, 16), 1);
    }

    #[test]
    fn plan_labels_round_trip() {
        for p in [
            LockPlan::Global,
            LockPlan::PerCpu,
            LockPlan::Sharded(3),
            LockPlan::PerNode(8),
        ] {
            assert_eq!(p.label().parse::<LockPlan>().unwrap(), p);
        }
    }

    #[test]
    fn plan_parse_rejects_nonsense() {
        assert!("bogus".parse::<LockPlan>().is_err());
        assert!("sharded:0".parse::<LockPlan>().is_err());
        assert!("sharded:x".parse::<LockPlan>().is_err());
        assert!("pernode:0".parse::<LockPlan>().is_err());
        assert!("pernode:x".parse::<LockPlan>().is_err());
    }

    #[test]
    fn home_domain_reacquire_is_a_noop() {
        let mut model = LockModel::new(2, 0);
        let a = model.acquire(0, Cycles(100), 0);
        let mut scratch = LockScratch::default();
        let mut d = LockDomains::new(&mut model, LockPlan::PerCpu, 2, 0, a, 0, &mut scratch);
        d.acquire_for_cpu(0, 50);
        assert_eq!(d.extra_spin(), 0);
        let taken = d.release_all(a + 50);
        assert!(taken.is_empty());
        assert_eq!(model.total_acquisitions(), 1);
    }

    #[test]
    fn ascending_acquire_takes_second_domain() {
        let mut model = LockModel::new(2, 0);
        // CPU 1 holds domain 1 until 1000.
        let b = model.acquire(1, Cycles(0), 1);
        model.release(1, b + 1000);
        // CPU 0's call starts at 100 on its own domain 0, then steals
        // from CPU 1's queue at +50 meter cycles: it spins until 1000.
        let a = model.acquire(0, Cycles(100), 0);
        let mut scratch = LockScratch::default();
        let mut d = LockDomains::new(&mut model, LockPlan::PerCpu, 2, 0, a, 0, &mut scratch);
        d.acquire_for_cpu(1, 50);
        // Arrived at 150, domain 1 free at 1000: 850 spin + 0 transfer
        // (transfer cost is 0 here).
        assert_eq!(d.extra_spin(), 850);
        let taken = d.release_all(Cycles(1000) + 60);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].domain, 1);
        assert_eq!(taken[0].spin, 850);
        assert_eq!(taken[0].at, Cycles(1000));
    }

    #[test]
    fn descending_acquire_releases_and_retakes_in_order() {
        let mut model = LockModel::new(2, 0);
        // CPU 1's call holds domain 1, then needs domain 0.
        let a = model.acquire(1, Cycles(100), 1);
        let mut scratch = LockScratch::default();
        let mut d = LockDomains::new(&mut model, LockPlan::PerCpu, 2, 1, a, 1, &mut scratch);
        d.acquire_for_cpu(0, 30);
        // Both domains free: re-taking 1 and taking 0 are both
        // spin-free, but they are real acquisitions.
        assert_eq!(d.extra_spin(), 0);
        assert_eq!(d.held(), &[0, 1]);
        let taken = d.release_all(Cycles(200));
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].domain, 0);
        assert_eq!(taken[1].domain, 1);
        // Initial + re-take of 1 + take of 0.
        assert_eq!(model.total_acquisitions(), 3);
        assert!(!model.is_held(0) && !model.is_held(1));
    }

    #[test]
    fn extra_spin_shifts_later_acquires() {
        let mut model = LockModel::new(3, 0);
        // Domain 1 busy until 500, domain 2 busy until 700.
        let x = model.acquire(1, Cycles(0), 9);
        model.release(1, x + 500);
        let y = model.acquire(2, Cycles(0), 9);
        model.release(2, y + 700);
        let a = model.acquire(0, Cycles(0), 0);
        let mut scratch = LockScratch::default();
        let mut d = LockDomains::new(&mut model, LockPlan::PerCpu, 3, 0, a, 0, &mut scratch);
        d.acquire_for_cpu(1, 100); // arrives 100, owns at 500: 400 spin
        assert_eq!(d.extra_spin(), 400);
        d.acquire_for_cpu(2, 100); // arrives 100 + 400 = 500, owns at 700
        assert_eq!(d.extra_spin(), 600);
        let taken = d.release_all(Cycles(800));
        assert_eq!(taken.iter().map(|t| t.spin).sum::<u64>(), 600);
    }
}
