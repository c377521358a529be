//! Lock plans: the locking regime a scheduler declares for its run queue(s),
//! and the one model of the run-queue locks that regime resolves to.
//!
//! Linux 2.3.99 guards all run-queue state with one global `runqueue_lock`,
//! and the paper's 2P/4P results are shaped by that single serialization
//! point (§4, §8). Sharded designs (the §8 multi-queue scheduler, the O(1)
//! scheduler that followed) split the state and its locks per CPU. A
//! [`LockPlan`] lets each [`Scheduler`](crate::Scheduler) declare which
//! regime it is built for.
//!
//! The machine owns one [`LockModel`]: the resolved plan, one busy-interval
//! record per domain, and the bookkeeping of the scheduler call in
//! progress — which domains it holds, how much extra spin its mid-call
//! acquisitions cost, and the `double_rq_lock` ordering discipline that
//! keeps multi-domain acquisition deadlock-free. Schedulers reach it only
//! through [`SchedCtx::lock_queue_domain`](crate::SchedCtx::lock_queue_domain),
//! so they can demand "I am about to touch CPU 3's queue" without knowing
//! how queues map onto lock domains.

use core::fmt;
use core::str::FromStr;

use elsc_simcore::Cycles;

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
            LockPlan::PerNode(per) => nr_cpus.max(1).div_ceil(per.max(1)),
        }
    }

    /// The domain guarding `queue_cpu`'s run-queue state.
    pub fn domain_for_cpu(self, queue_cpu: usize, nr_cpus: usize) -> usize {
        match self {
            LockPlan::Global => 0,
            LockPlan::PerCpu => queue_cpu % nr_cpus.max(1),
            LockPlan::PerNode(per) => (queue_cpu / per.max(1)).min(
                // Clamp stale CPU ids into the last node's domain so the
                // mapping is total, as the per-CPU plan's modulo is.
                self.nr_domains(nr_cpus) - 1,
            ),
        }
    }

    /// Short label for reports ("global", "percpu", "pernode:K" with K
    /// the CPUs-per-node chunk).
    pub fn label(self) -> String {
        self.to_string()
    }
}

impl fmt::Display for LockPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockPlan::Global => f.write_str("global"),
            LockPlan::PerCpu => f.write_str("percpu"),
            LockPlan::PerNode(per) => write!(f, "pernode:{per}"),
        }
    }
}

impl FromStr for LockPlan {
    type Err = String;

    /// Parses `global`, `percpu`, or `pernode:K` (K ≥ 1). The CLI
    /// additionally accepts bare `pernode`, resolving K from the
    /// declared topology before it reaches this parser.
    ///
    /// ```
    /// use elsc_sched_api::LockPlan;
    ///
    /// assert_eq!("global".parse::<LockPlan>(), Ok(LockPlan::Global));
    /// assert_eq!("percpu".parse::<LockPlan>(), Ok(LockPlan::PerCpu));
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
                if let Some(per) = s.strip_prefix("pernode:") {
                    let per: usize = per
                        .parse()
                        .map_err(|_| format!("bad CPUs-per-node in lock plan '{s}'"))?;
                    if per == 0 {
                        return Err("pernode needs at least one CPU per node".to_string());
                    }
                    Ok(LockPlan::PerNode(per))
                } else {
                    Err(format!(
                        "unknown lock plan '{s}' (expected global, percpu, or pernode:K)"
                    ))
                }
            }
        }
    }
}

/// One lock-domain acquisition — a call's home domain or a mid-call one —
/// for the machine's accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DomainAcquire {
    /// Which domain was taken.
    pub domain: usize,
    /// Cycles spent spinning (and transferring the line) for it.
    pub spin: u64,
    /// The instant the acquirer owned it.
    pub at: Cycles,
}

/// Statistics snapshot of one lock domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Cycles acquirers spent spinning on this domain.
    pub spin_cycles: u64,
    /// Acquisitions of this domain.
    pub acquisitions: u64,
    /// Acquisitions that had to spin.
    pub contended: u64,
    /// Cycles the domain was held.
    pub held_cycles: u64,
}

/// One lock domain as a busy interval.
///
/// The simulation is single-threaded and processes events in global time
/// order, so a contended spinlock can be modelled analytically: the
/// domain records when it next becomes free, an acquirer at `now` owns
/// it at `max(now, free_at) + transfer`, and the gap is its spin.
/// `transfer` is the cache-line migration cost, paid only when ownership
/// moves to a different CPU.
#[derive(Clone, Debug, Default)]
struct Domain {
    free_at: Cycles,
    /// `None` until first taken: the first owner pays no transfer.
    last_holder: Option<usize>,
    acquired_at: Cycles,
    stats: DomainStats,
}

impl Domain {
    /// Takes the domain at `now` for `holder`; returns the owned instant.
    fn acquire(&mut self, now: Cycles, holder: usize, transfer_cost: u64) -> Cycles {
        let ready = now.max(self.free_at);
        let spin = ready - now;
        if spin > Cycles::ZERO {
            self.stats.contended += 1;
        }
        self.stats.spin_cycles += spin.get();
        let transfer = if self.last_holder.is_some_and(|h| h != holder) {
            transfer_cost
        } else {
            0
        };
        let owned_at = ready + transfer;
        self.last_holder = Some(holder);
        self.stats.acquisitions += 1;
        self.acquired_at = owned_at;
        owned_at
    }

    /// Releases the domain at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the acquisition (time must not run
    /// backwards).
    fn release(&mut self, at: Cycles) {
        assert!(
            at >= self.acquired_at,
            "LockModel: release at {at:?} before acquire at {:?}",
            self.acquired_at
        );
        self.free_at = at;
        self.stats.held_cycles += (at - self.acquired_at).get();
    }
}

/// The run-queue locks of one machine: the resolved [`LockPlan`], a busy
/// interval per domain, and the domains the current scheduler call holds.
///
/// A call starts with [`lock_home`](LockModel::lock_home), which takes the
/// domain guarding the caller's run queue (its spin is the caller's to
/// charge). The machine then lends the model to the scheduler as
/// [`SchedCtx::locks`](crate::SchedCtx::locks): mid-call acquisitions — a multi-queue steal taking a
/// victim CPU's lock — accumulate their spin in
/// [`extra_spin`](LockModel::extra_spin) and are logged in
/// [`taken`](LockModel::taken), which stays readable after
/// [`release_all`](LockModel::release_all) until the next call. The
/// buffers are reused, so the per-call path does not allocate.
///
/// # Ordering discipline
///
/// Domains are always held in ascending index order (`double_rq_lock`).
/// Acquiring a domain below the highest held one releases everything and
/// retakes the whole set in ascending order; re-taking a just-released
/// domain is free (same holder, no busy interval) but does count as an
/// acquisition, exactly as `double_rq_lock`'s unlock-and-relock does.
///
/// # Examples
///
/// ```
/// use elsc_sched_api::{LockModel, LockPlan};
/// use elsc_simcore::Cycles;
///
/// let mut m = LockModel::new(LockPlan::PerCpu, 2, 100); // 100-cycle transfer
/// // CPU 1 locks its own queue at 0 and holds it for 500 cycles.
/// let home = m.lock_home(1, 1, Cycles(0));
/// assert_eq!((home.domain, home.at), (1, Cycles(0)));
/// m.release_all(Cycles(500));
/// // CPU 0 locks its queue at 200, then steals from CPU 1's 50 cycles in:
/// // it spins until 500, then pays the line transfer.
/// m.lock_home(0, 0, Cycles(200));
/// m.acquire_for_cpu(1, 50);
/// assert_eq!(m.extra_spin(), 500 - 250 + 100);
/// m.release_all(Cycles(1000));
/// assert_eq!(m.taken()[0].domain, 1);
/// assert_eq!(m.total_acquisitions(), 3);
/// ```
#[derive(Debug)]
pub struct LockModel {
    plan: LockPlan,
    nr_cpus: usize,
    transfer_cost: u64,
    domains: Vec<Domain>,
    /// The CPU whose call holds the domains.
    holder: usize,
    /// The instant the call's home domain was owned (its cycle origin).
    base: Cycles,
    extra_spin: u64,
    /// Held domains, ascending.
    held: Vec<usize>,
    taken: Vec<DomainAcquire>,
}

impl LockModel {
    /// Creates `plan`'s domains for an `nr_cpus` machine, all free, sharing
    /// one cache-line transfer cost (cycles charged when ownership moves
    /// between CPUs).
    pub fn new(plan: LockPlan, nr_cpus: usize, transfer_cost: u64) -> Self {
        LockModel {
            plan,
            nr_cpus,
            transfer_cost,
            domains: vec![Domain::default(); plan.nr_domains(nr_cpus)],
            holder: 0,
            base: Cycles::ZERO,
            extra_spin: 0,
            held: Vec::new(),
            taken: Vec::new(),
        }
    }

    /// The locking regime in effect.
    pub fn plan(&self) -> LockPlan {
        self.plan
    }

    /// Starts a call by `holder` working on `queue_cpu`'s run queue:
    /// takes the domain guarding it at `now` and returns that
    /// acquisition, whose spin the caller charges.
    ///
    /// # Panics
    ///
    /// Panics if the previous call did not [`release_all`](Self::release_all)
    /// (events run one at a time, so a held domain here is a forgotten
    /// release — a bug we want loud).
    pub fn lock_home(&mut self, queue_cpu: usize, holder: usize, now: Cycles) -> DomainAcquire {
        assert!(
            self.held.is_empty(),
            "LockModel: a call began while domains {:?} are still held",
            self.held
        );
        let domain = self.plan.domain_for_cpu(queue_cpu, self.nr_cpus);
        let at = self.domains[domain].acquire(now, holder, self.transfer_cost);
        self.holder = holder;
        self.base = at;
        self.extra_spin = 0;
        self.taken.clear();
        self.held.push(domain);
        DomainAcquire {
            domain,
            spin: at.saturating_sub(now).get(),
            at,
        }
    }

    /// Spin cycles the current call's mid-call acquisitions cost so far.
    pub fn extra_spin(&self) -> u64 {
        self.extra_spin
    }

    /// Ends the call: releases every held domain at `at`.
    pub fn release_all(&mut self, at: Cycles) {
        for &d in &self.held {
            self.domains[d].release(at);
        }
        self.held.clear();
    }

    /// The mid-call acquisitions of the most recent call, in order.
    pub fn taken(&self) -> &[DomainAcquire] {
        &self.taken
    }

    /// Total spin cycles across all domains.
    pub fn total_spin(&self) -> Cycles {
        Cycles(self.domains.iter().map(|d| d.stats.spin_cycles).sum())
    }

    /// Total acquisitions across all domains.
    pub fn total_acquisitions(&self) -> u64 {
        self.domains.iter().map(|d| d.stats.acquisitions).sum()
    }

    /// Per-domain statistics snapshot, in domain order.
    pub fn domain_stats(&self) -> Vec<DomainStats> {
        self.domains.iter().map(|d| d.stats).collect()
    }

    /// Takes `domain` at `now` for the call, logging the acquisition;
    /// returns the owned instant.
    fn take(&mut self, domain: usize, now: Cycles) -> Cycles {
        let owned = self.domains[domain].acquire(now, self.holder, self.transfer_cost);
        let spin = owned.saturating_sub(now).get();
        self.extra_spin += spin;
        self.taken.push(DomainAcquire {
            domain,
            spin,
            at: owned,
        });
        owned
    }

    /// Ensures the domain guarding `queue_cpu`'s run queue is held, given
    /// that `elapsed` meter cycles have passed inside the current call
    /// (what a scheduler asks mid-call, through
    /// [`SchedCtx::lock_queue_domain`](crate::SchedCtx::lock_queue_domain)).
    /// No-op if the domain is already held.
    pub fn acquire_for_cpu(&mut self, queue_cpu: usize, elapsed: u64) {
        debug_assert!(
            !self.held.is_empty(),
            "a mid-call acquisition outside a call"
        );
        let domain = self.plan.domain_for_cpu(queue_cpu, self.nr_cpus);
        if self.held.contains(&domain) {
            return;
        }
        let now = self.base + elapsed + self.extra_spin;
        if self.held.last().is_some_and(|&h| domain > h) {
            // Already in canonical order: take it directly.
            self.take(domain, now);
            self.held.push(domain);
        } else {
            // Out of order: double_rq_lock — drop everything, retake the
            // whole set ascending.
            for &d in &self.held {
                self.domains[d].release(now);
            }
            self.held.push(domain);
            self.held.sort_unstable();
            let order = core::mem::take(&mut self.held);
            let mut t = now;
            for &d in &order {
                t = self.take(d, t);
            }
            self.held = order;
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
        assert_eq!(LockPlan::PerNode(8).nr_domains(16), 2);
        assert_eq!(LockPlan::PerNode(4).nr_domains(4), 1);
        assert_eq!(LockPlan::PerNode(0).nr_domains(4), 4);
    }

    #[test]
    fn plan_domain_mapping() {
        assert_eq!(LockPlan::Global.domain_for_cpu(3, 4), 0);
        assert_eq!(LockPlan::PerCpu.domain_for_cpu(3, 4), 3);
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
        for p in [LockPlan::Global, LockPlan::PerCpu, LockPlan::PerNode(8)] {
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
        let mut model = LockModel::new(LockPlan::PerCpu, 2, 0);
        let home = model.lock_home(0, 0, Cycles(100));
        model.acquire_for_cpu(0, 50);
        assert_eq!(model.extra_spin(), 0);
        model.release_all(home.at + 50);
        assert!(model.taken().is_empty());
        assert_eq!(model.total_acquisitions(), 1);
    }

    #[test]
    fn ascending_acquire_takes_second_domain() {
        let mut model = LockModel::new(LockPlan::PerCpu, 2, 0);
        // CPU 1 holds domain 1 until 1000.
        let b = model.lock_home(1, 1, Cycles(0));
        model.release_all(b.at + 1000);
        // CPU 0's call starts at 100 on its own domain 0, then steals
        // from CPU 1's queue at +50 meter cycles: it spins until 1000.
        model.lock_home(0, 0, Cycles(100));
        model.acquire_for_cpu(1, 50);
        // Arrived at 150, domain 1 free at 1000: 850 spin + 0 transfer
        // (transfer cost is 0 here).
        assert_eq!(model.extra_spin(), 850);
        model.release_all(Cycles(1000) + 60);
        let taken = model.taken();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].domain, 1);
        assert_eq!(taken[0].spin, 850);
        assert_eq!(taken[0].at, Cycles(1000));
    }

    #[test]
    fn descending_acquire_releases_and_retakes_in_order() {
        let mut model = LockModel::new(LockPlan::PerCpu, 2, 0);
        // CPU 1's call holds domain 1, then needs domain 0.
        model.lock_home(1, 1, Cycles(100));
        model.acquire_for_cpu(0, 30);
        // Both domains free: re-taking 1 and taking 0 are both
        // spin-free, but they are real acquisitions.
        assert_eq!(model.extra_spin(), 0);
        assert_eq!(model.held, [0, 1]);
        model.release_all(Cycles(200));
        let taken = model.taken();
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].domain, 0);
        assert_eq!(taken[1].domain, 1);
        // Initial + re-take of 1 + take of 0.
        assert_eq!(model.total_acquisitions(), 3);
        assert!(model.held.is_empty());
    }

    #[test]
    fn extra_spin_shifts_later_acquires() {
        let mut model = LockModel::new(LockPlan::PerCpu, 3, 0);
        // Domain 1 busy until 500, domain 2 busy until 700.
        let x = model.lock_home(1, 1, Cycles(0));
        model.release_all(x.at + 500);
        let y = model.lock_home(2, 2, Cycles(0));
        model.release_all(y.at + 700);
        model.lock_home(0, 0, Cycles(0));
        model.acquire_for_cpu(1, 100); // arrives 100, owns at 500: 400 spin
        assert_eq!(model.extra_spin(), 400);
        model.acquire_for_cpu(2, 100); // arrives 100 + 400 = 500, owns at 700
        assert_eq!(model.extra_spin(), 600);
        model.release_all(Cycles(800));
        assert_eq!(model.taken().iter().map(|t| t.spin).sum::<u64>(), 600);
    }

    #[test]
    #[should_panic(expected = "still held")]
    fn call_over_a_held_domain_panics() {
        let mut model = LockModel::new(LockPlan::Global, 2, 0);
        model.lock_home(0, 0, Cycles(0));
        model.lock_home(1, 1, Cycles(1));
    }

    /// The lock model written out literally, one domain at a time: when
    /// it is next free, who held it last, and its counters.
    #[derive(Clone, Default)]
    struct RefDomain {
        free_at: u64,
        last: Option<usize>,
        owned_at: u64,
        spin: u64,
        contended: u64,
        held: u64,
        acquisitions: u64,
    }

    impl RefDomain {
        /// An acquirer arriving at `now` waits for the domain to be free,
        /// then pays the line transfer if another CPU held it last.
        fn acquire(&mut self, now: u64, cpu: usize, transfer: u64) -> u64 {
            let ready = if self.free_at > now {
                self.free_at
            } else {
                now
            };
            if ready > now {
                self.contended += 1;
            }
            self.spin += ready - now;
            let moved = matches!(self.last, Some(prev) if prev != cpu);
            self.owned_at = ready + if moved { transfer } else { 0 };
            self.last = Some(cpu);
            self.acquisitions += 1;
            self.owned_at
        }

        fn release(&mut self, at: u64) {
            self.held += at - self.owned_at;
            self.free_at = at;
        }
    }

    /// Home-domain and mid-call acquisitions in `SimRng` order, under
    /// every plan shape: each acquisition, each call's extra spin, held
    /// set and log, and the final per-domain counters equal the literal
    /// reference above, which takes a lower domain the `double_rq_lock`
    /// way (release all, retake the whole set ascending).
    #[test]
    fn random_calls_match_the_literal_reference() {
        use elsc_simcore::SimRng;
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x10CC_D0D0 ^ seed);
            let nr_cpus = rng.range(1, 9) as usize;
            let transfer = rng.below(200);
            let plans = [
                LockPlan::Global,
                LockPlan::PerCpu,
                LockPlan::PerNode(rng.range(1, 5) as usize),
            ];
            for plan in plans {
                let mut model = LockModel::new(plan, nr_cpus, transfer);
                let mut reference = vec![RefDomain::default(); plan.nr_domains(nr_cpus)];
                let mut now = 0u64;
                for _ in 0..200 {
                    now += rng.below(400);
                    let cpu = rng.below(nr_cpus as u64) as usize;
                    let queue = rng.below(nr_cpus as u64 + 1) as usize;
                    let home = plan.domain_for_cpu(queue, nr_cpus);
                    let base = reference[home].acquire(now, cpu, transfer);
                    let got = model.lock_home(queue, cpu, Cycles(now));
                    assert_eq!(
                        got,
                        DomainAcquire {
                            domain: home,
                            spin: base - now,
                            at: Cycles(base)
                        }
                    );

                    let mut held = vec![home];
                    let mut log = Vec::new();
                    let (mut elapsed, mut extra) = (0u64, 0u64);
                    for _ in 0..rng.below(4) {
                        elapsed += rng.below(300);
                        let q = rng.below(nr_cpus as u64 + 1) as usize;
                        model.acquire_for_cpu(q, elapsed);
                        let d = plan.domain_for_cpu(q, nr_cpus);
                        if held.contains(&d) {
                            continue;
                        }
                        let arrive = base + elapsed + extra;
                        let retake: Vec<usize> = if d > *held.iter().max().unwrap() {
                            vec![d]
                        } else {
                            for &h in &held {
                                reference[h].release(arrive);
                            }
                            let mut all = held.clone();
                            all.push(d);
                            all.sort_unstable();
                            held.clear();
                            all
                        };
                        let mut t = arrive;
                        for x in retake {
                            let owned = reference[x].acquire(t, cpu, transfer);
                            log.push(DomainAcquire {
                                domain: x,
                                spin: owned - t,
                                at: Cycles(owned),
                            });
                            extra += owned - t;
                            held.push(x);
                            t = owned;
                        }
                        assert_eq!(model.extra_spin(), extra);
                        assert_eq!(model.held, held);
                    }
                    let end = base + elapsed + extra + rng.below(500);
                    for &h in &held {
                        reference[h].release(end);
                    }
                    model.release_all(Cycles(end));
                    assert_eq!(model.taken(), &log[..]);
                    now = end.min(now + rng.below(2000));
                }
                let want: Vec<DomainStats> = reference
                    .iter()
                    .map(|r| DomainStats {
                        spin_cycles: r.spin,
                        acquisitions: r.acquisitions,
                        contended: r.contended,
                        held_cycles: r.held,
                    })
                    .collect();
                assert_eq!(model.domain_stats(), want, "seed {seed} plan {plan}");
                assert_eq!(
                    model.total_spin().get(),
                    want.iter().map(|s| s.spin_cycles).sum::<u64>()
                );
                assert_eq!(
                    model.total_acquisitions(),
                    want.iter().map(|s| s.acquisitions).sum::<u64>()
                );
            }
        }
    }
}
