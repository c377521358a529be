//! Sweep cells: one `(scheduler × lock plan × machine shape × workload
//! parameters × seed)` point of the experiment grid, and its execution.
//!
//! A cell is **pure data** (`Send + Sync + Clone`): the worker pool ships
//! configs to threads and [`RunReport`]s back, never machines. Because
//! the simulator is a pure function of `(seed, config, scheduler)`
//! (`tests/determinism.rs` pins this), executing cells on any number of
//! threads in any order produces identical per-cell results — the basis
//! for both the byte-identical-manifest guarantee and the result cache.

use std::fmt;

use elsc::ElscScheduler;
use elsc_cluster::{volano, Cluster, ClusterConfig, ClusterFaultPlan, DispatcherId};
use elsc_machine::{FaultPlan, Machine, MachineConfig, RunReport};
use elsc_sched_api::{LockPlan, Scheduler};
use elsc_sched_ext::{
    AffinityHeapScheduler, BubbleScheduler, HeapScheduler, LearnedScheduler, MultiQueueScheduler,
    MAX_QUEUES,
};
use elsc_sched_linux::LinuxScheduler;
use elsc_simcore::Topology;
use elsc_workloads::{
    httpd, kbuild, rtmix, stress, volanomark, HttpdConfig, KbuildConfig, RtMixConfig, StressConfig,
    VolanoConfig,
};

/// The scheduler registry: every design a name can select, and the only
/// `name → Box<dyn Scheduler>` path in shipped code — the CLI, the lab,
/// `crates/bench` and the integration tests all parse a name into a
/// `SchedId` and [`build`](SchedId::build) it. Adding a native design is
/// one variant plus its row in [`label`](SchedId::label),
/// [`describe`](SchedId::describe), [`build`](SchedId::build) and
/// [`SchedId::NATIVE`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedId {
    /// The stock 2.3.99 scheduler ("reg").
    Reg,
    /// The paper's contribution ("elsc").
    Elsc,
    /// §8 global-heap design ("heap").
    Heap,
    /// §8 per-(processor, address-space) heap design ("aheap").
    AHeap,
    /// §8 per-CPU multi-queue design ("mq").
    Mq,
    /// The topology-tree bubble scheduler ("bubble"): per-NUMA-node
    /// queues placing whole mm-keyed task groups. Deliberately not in
    /// [`SchedId::ALL`]: on flat shapes it degenerates to one global
    /// queue and adds nothing to the paper sweeps; the `topo` builtin
    /// (and any spec naming it) opts in.
    Bubble,
    /// An interpreted `.pol` policy program (see `elsc-policy`). The
    /// program source travels *inside* the cell so cell execution stays
    /// pure `CellConfig`-in / `CellResult`-out — no worker-thread file
    /// IO, no mid-sweep edits changing results behind the cache's back.
    Policy {
        /// Display name, `policy:<file stem>` — figure-legend form.
        name: String,
        /// The full program source, verified at construction.
        src: String,
        /// FNV-1a digest of `src`; part of the cell id, so editing a
        /// policy dirties exactly its own cache entries.
        digest: u64,
    },
    /// A learned scheduler wrapping a trained `elsc-learn` model (see
    /// `crates/learn`). Like [`SchedId::Policy`], the model text travels
    /// *inside* the cell — verified at construction, digested into the
    /// cell id — so retraining a model dirties exactly its own cache
    /// entries and cell execution stays file-IO free.
    Learned {
        /// Display name, `learned:<file stem>` — figure-legend form.
        name: String,
        /// The full model file text, verified at construction.
        src: String,
        /// FNV-1a digest of `src`; part of the cell id.
        digest: u64,
    },
}

impl SchedId {
    /// The five native designs, in the order used everywhere in this
    /// repo (policy cells are constructed explicitly, never defaulted).
    pub const ALL: [SchedId; 5] = [
        SchedId::Reg,
        SchedId::Elsc,
        SchedId::Heap,
        SchedId::AHeap,
        SchedId::Mq,
    ];

    /// Every native design a bare name selects: [`SchedId::ALL`] plus the
    /// topology-native `bubble` — what `elsc-sim ls` lists and the
    /// registry-wide tests iterate.
    pub const NATIVE: [SchedId; 6] = [
        SchedId::Reg,
        SchedId::Elsc,
        SchedId::Heap,
        SchedId::AHeap,
        SchedId::Mq,
        SchedId::Bubble,
    ];

    /// Builds a policy scheduler id from a display name and program
    /// source, verifying the program up front so a typo fails at spec
    /// parse time, not mid-sweep on a worker thread.
    pub fn policy(name: impl Into<String>, src: impl Into<String>) -> Result<SchedId, String> {
        let (name, src) = (name.into(), src.into());
        elsc_policy::load_str(&src).map_err(|e| format!("{name}: {e}"))?;
        Ok(SchedId::policy_verified(name, src))
    }

    fn policy_verified(name: String, src: String) -> SchedId {
        let digest = crate::hash::fnv1a(src.as_bytes());
        SchedId::Policy { name, src, digest }
    }

    /// Builds a learned scheduler id from a display name and model file
    /// text, parsing the model up front so a corrupt file fails at spec
    /// parse time, not mid-sweep on a worker thread.
    pub fn learned(name: impl Into<String>, src: impl Into<String>) -> Result<SchedId, String> {
        let (name, src) = (name.into(), src.into());
        elsc_learn::Model::parse(&src).map_err(|e| format!("{name}: {e}"))?;
        Ok(SchedId::learned_verified(name, src))
    }

    fn learned_verified(name: String, src: String) -> SchedId {
        let digest = crate::hash::fnv1a(src.as_bytes());
        SchedId::Learned { name, src, digest }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &str {
        match self {
            SchedId::Reg => "reg",
            SchedId::Elsc => "elsc",
            SchedId::Heap => "heap",
            SchedId::AHeap => "aheap",
            SchedId::Mq => "mq",
            SchedId::Bubble => "bubble",
            SchedId::Policy { name, .. } => name,
            SchedId::Learned { name, .. } => name,
        }
    }

    /// One-line description, as `elsc-sim ls` prints it.
    pub fn describe(&self) -> &'static str {
        match self {
            SchedId::Reg => "vanilla Linux 2.2/2.3 scheduler (paper sec. 3)",
            SchedId::Elsc => "30-list static-goodness table (paper sec. 5)",
            SchedId::Heap => "goodness-ordered heap prototype (paper sec. 8)",
            SchedId::AHeap => "affinity-aware heap prototype (paper sec. 8)",
            SchedId::Mq => "per-CPU multi-queue prototype (paper sec. 8)",
            SchedId::Bubble => "NUMA-node bubble scheduler (topology tree)",
            SchedId::Policy { .. } => "loadable .pol policy program on the bytecode VM",
            SchedId::Learned { .. } => "trained model with a verified native fallback",
        }
    }

    /// The cell-id token: the label, plus the content digest for policy
    /// and learned schedulers (two sweeps of the same-named but edited
    /// `.pol` or model file must not share cache entries or baseline
    /// rows).
    pub fn id_token(&self) -> String {
        match self {
            SchedId::Policy { name, digest, .. } | SchedId::Learned { name, digest, .. } => {
                format!("{name}#{digest:016x}")
            }
            native => native.label().to_string(),
        }
    }

    /// Whether this design can be built for `topo`: `mq` keeps one queue
    /// per CPU and `bubble` one per NUMA node, and neither can address
    /// more than [`MAX_QUEUES`]. The CLI and spec parsing call this, so
    /// an oversized shape is a plain error before [`build`](Self::build)
    /// would assert.
    pub fn fits(&self, topo: &Topology) -> Result<(), String> {
        let (queues, per) = match self {
            SchedId::Mq => (topo.nr_cpus(), "CPU"),
            SchedId::Bubble => (topo.nr_nodes(), "NUMA node"),
            _ => return Ok(()),
        };
        if queues > MAX_QUEUES {
            return Err(format!(
                "{} keeps one run queue per {per} and supports at most {MAX_QUEUES}; \
                 shape {} needs {queues}",
                self.label(),
                Shape::from(*topo).label()
            ));
        }
        Ok(())
    }

    /// Instantiates the scheduler. The declared topology sizes the
    /// structural designs: `Mq` (and policies with `lists percpu`) per
    /// CPU, `Bubble` per NUMA node.
    ///
    /// # Panics
    ///
    /// Panics on a shape [`fits`](Self::fits) rejects.
    pub fn build(&self, topo: Topology) -> Box<dyn Scheduler> {
        let nr_cpus = topo.nr_cpus();
        match self {
            SchedId::Reg => Box::new(LinuxScheduler::new()),
            SchedId::Elsc => Box::new(ElscScheduler::new()),
            SchedId::Heap => Box::new(HeapScheduler::new()),
            SchedId::AHeap => Box::new(AffinityHeapScheduler::new()),
            SchedId::Mq => Box::new(MultiQueueScheduler::new(nr_cpus)),
            SchedId::Bubble => Box::new(BubbleScheduler::new(topo)),
            SchedId::Policy { src, name, .. } => Box::new(
                elsc_policy::PolicyScheduler::load_str(src, nr_cpus)
                    .unwrap_or_else(|e| panic!("{name} verified at construction: {e}")),
            ),
            SchedId::Learned { name, src, .. } => {
                let stem = name.strip_prefix("learned:").unwrap_or(name);
                Box::new(
                    LearnedScheduler::from_text(stem, src)
                        .unwrap_or_else(|e| panic!("{name} verified at construction: {e}")),
                )
            }
        }
    }
}

impl std::str::FromStr for SchedId {
    type Err = String;

    /// Parses a scheduler name: a native design (`reg`, `elsc`, `heap`,
    /// `aheap`, `mq`, `bubble`), `policy:PATH` for a `.pol` program, or
    /// `learned:PATH` for a trained model file (both read and verified
    /// immediately; the cell embeds the source, not the path). A file
    /// that fails to load is reported against its *path* —
    /// `PATH:line:col: message` for a policy — so the diagnostic is
    /// clickable from the CLI and from spec files alike.
    fn from_str(s: &str) -> Result<SchedId, String> {
        let stem = |path: &str| {
            std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.to_string(), |x| x.to_string_lossy().into_owned())
        };
        if let Some(path) = s.strip_prefix("learned:") {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("model file {path}: {e}"))?;
            elsc_learn::Model::parse(&src).map_err(|e| format!("{path}: {e}"))?;
            return Ok(SchedId::learned_verified(
                format!("learned:{}", stem(path)),
                src,
            ));
        }
        if let Some(path) = s.strip_prefix("policy:") {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("policy program {path}: {e}"))?;
            // A policy error is positioned: `PATH:line:col: message`.
            elsc_policy::load_str(&src).map_err(|e| format!("{path}:{e}"))?;
            return Ok(SchedId::policy_verified(
                format!("policy:{}", stem(path)),
                src,
            ));
        }
        SchedId::NATIVE
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| {
                format!(
                    "unknown scheduler '{s}' \
                     (reg|elsc|heap|aheap|mq|bubble|policy:FILE|learned:FILE)"
                )
            })
    }
}

/// Machine shapes from the paper's evaluation: a non-SMP uniprocessor
/// build, or an SMP build on N processors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Non-SMP kernel build on one processor ("UP").
    Up,
    /// SMP kernel build on `n` processors ("1P", "2P", "4P", ...).
    Smp(usize),
    /// SMP build over a declared multi-level NUMA/SMT tree ("2N4C2T").
    /// The parser canonicalizes declared *flat* trees to [`Shape::Smp`]
    /// — a flat tree *is* the flat model, so the two spellings must
    /// share cell ids, cache entries, and baseline rows.
    Topo(Topology),
}

impl Shape {
    /// The four configurations of Figures 2–6.
    pub const PAPER: [Shape; 4] = [Shape::Up, Shape::Smp(1), Shape::Smp(2), Shape::Smp(4)];

    /// Paper-style label ("UP", "2P", ...).
    pub fn label(self) -> String {
        match self {
            Shape::Up => "UP".to_string(),
            Shape::Smp(n) => format!("{n}P"),
            Shape::Topo(t) => t.to_string(),
        }
    }

    /// The declared topology tree: flat for `Up`/`Smp`.
    pub fn topology(self) -> Topology {
        match self {
            Shape::Up => Topology::flat(1),
            Shape::Smp(n) => Topology::flat(n),
            Shape::Topo(t) => t,
        }
    }

    /// Number of processors.
    pub fn nr_cpus(self) -> usize {
        match self {
            Shape::Up => 1,
            Shape::Smp(n) => n,
            Shape::Topo(t) => t.nr_cpus(),
        }
    }

    /// The machine configuration for this shape (paper-calibrated
    /// defaults, generous watchdog).
    pub fn machine(self) -> MachineConfig {
        match self {
            Shape::Up => MachineConfig::up(),
            Shape::Smp(n) => MachineConfig::smp(n),
            Shape::Topo(t) => MachineConfig::topo(t),
        }
        .with_max_secs(20_000.0)
    }
}

impl std::str::FromStr for Shape {
    type Err = String;

    /// Parses `UP`/`up`, `<n>P`/`<n>p` for an SMP build (`1P`, `4p`),
    /// or a topology tree (`2N4C2T`, `2P2N4C2T`). Declared flat trees
    /// canonicalize to `Smp` so `1N4C1T` and `4P` are the same shape.
    fn from_str(s: &str) -> Result<Shape, String> {
        if s.eq_ignore_ascii_case("up") {
            return Ok(Shape::Up);
        }
        if let Some(digits) = s.strip_suffix('P').or_else(|| s.strip_suffix('p')) {
            if let Ok(n) = digits.parse::<usize>() {
                if n == 0 {
                    return Err("an SMP shape needs at least one CPU".to_string());
                }
                return Ok(Shape::Smp(n));
            }
        }
        s.parse::<Topology>()
            .map(Shape::from)
            .map_err(|_| format!("unknown shape '{s}' (UP, <n>P, or a topology like 2N4C2T)"))
    }
}

impl From<Topology> for Shape {
    /// The SMP shape over a declared tree, canonicalized: a flat tree is
    /// [`Shape::Smp`].
    fn from(t: Topology) -> Shape {
        if t.is_flat() {
            Shape::Smp(t.nr_cpus())
        } else {
            Shape::Topo(t)
        }
    }
}

/// The workload of one cell, with every parameter pinned to a number so
/// the cell is hashable and cache-keyable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadCell {
    /// VolanoMark chat benchmark (paper §4/§6).
    Volano {
        /// Chat rooms (paper sweeps 5–25).
        rooms: u64,
        /// Users per room (paper: 20).
        users: u64,
        /// Messages each user sends.
        messages: u64,
        /// Mean client think time between sends, cycles.
        think: u64,
    },
    /// Kernel compile, `make -jN` (paper Table 2).
    Kbuild {
        /// Parallel jobs.
        jobs: u64,
        /// Translation units.
        units: u64,
    },
    /// Apache-like web server (paper §8).
    Httpd {
        /// Concurrent clients.
        clients: u64,
        /// Server worker threads.
        workers: u64,
        /// Requests per client.
        requests: u64,
    },
    /// Synthetic run-queue stress.
    Stress {
        /// Spinning tasks.
        tasks: u64,
        /// Compute/yield rounds per task.
        rounds: u64,
        /// Cycles per round.
        burst: u64,
    },
    /// Mixed `SCHED_FIFO`/`SCHED_RR`/`SCHED_OTHER` criticality at its
    /// fixed default parameters. The CLI's `rtmix` workload; the spec
    /// grammar does not name it.
    RtMix,
    /// A VolanoMark-shaped mega-scale cell (100k–1M tasks): the same
    /// chat topology as [`WorkloadCell::Volano`], but executed with
    /// engine metrics on, so the report (and the manifest record) carry
    /// the simulator's own throughput — `sim_events_per_sec` — beside
    /// the model metrics. Mega cells are the engine gate: they exist to
    /// measure how fast the calendar event queue and the task-table
    /// scans push a huge task population, not to reproduce a paper
    /// figure.
    Mega {
        /// Chat rooms (each room is `users × 4` threads).
        rooms: u64,
        /// Users per room.
        users: u64,
        /// Messages each user sends.
        messages: u64,
        /// Mean client think time between sends, cycles.
        think: u64,
    },
    /// A federated VolanoMark cluster: `nodes` machines of the cell's
    /// shape under a cluster dispatcher, bridged by delay-modelled links
    /// (the two-level scheduler — see `elsc-cluster`). The cell's seed,
    /// fault plan, and oracle apply per the federation's contract: node
    /// seeds derive from the cell seed, the fault text parses as a
    /// *cluster* plan, and the oracle runs beside every node.
    Cluster {
        /// Federated machines (each of the cell's shape).
        nodes: u64,
        /// Placement policy of the dispatcher tier.
        dispatcher: DispatcherId,
        /// Chat rooms across the whole cluster.
        rooms: u64,
        /// Users per room.
        users: u64,
        /// Messages each user sends.
        messages: u64,
        /// Mean client think time between sends, cycles.
        think: u64,
    },
}

impl WorkloadCell {
    /// Workload name ("volano", "kbuild", "httpd", "stress", "rtmix",
    /// "mega", "cluster").
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadCell::Volano { .. } => "volano",
            WorkloadCell::Kbuild { .. } => "kbuild",
            WorkloadCell::Httpd { .. } => "httpd",
            WorkloadCell::Stress { .. } => "stress",
            WorkloadCell::RtMix => "rtmix",
            WorkloadCell::Mega { .. } => "mega",
            WorkloadCell::Cluster { .. } => "cluster",
        }
    }

    /// The workload's parameters as `(name, value)` pairs in canonical
    /// order — the order used by cell ids, cache keys, and manifests.
    pub fn params(&self) -> Vec<(&'static str, u64)> {
        match *self {
            WorkloadCell::Volano {
                rooms,
                users,
                messages,
                think,
            } => vec![
                ("rooms", rooms),
                ("users", users),
                ("messages", messages),
                ("think", think),
            ],
            WorkloadCell::Kbuild { jobs, units } => vec![("jobs", jobs), ("units", units)],
            WorkloadCell::Httpd {
                clients,
                workers,
                requests,
            } => vec![
                ("clients", clients),
                ("workers", workers),
                ("requests", requests),
            ],
            WorkloadCell::Stress {
                tasks,
                rounds,
                burst,
            } => vec![("tasks", tasks), ("rounds", rounds), ("burst", burst)],
            WorkloadCell::RtMix => Vec::new(),
            WorkloadCell::Mega {
                rooms,
                users,
                messages,
                think,
            } => vec![
                ("rooms", rooms),
                ("users", users),
                ("messages", messages),
                ("think", think),
            ],
            WorkloadCell::Cluster {
                nodes,
                dispatcher: _,
                rooms,
                users,
                messages,
                think,
            } => vec![
                ("nodes", nodes),
                ("rooms", rooms),
                ("users", users),
                ("messages", messages),
                ("think", think),
            ],
        }
    }

    /// The `key=value` tokens of the cell id's parameter segment: every
    /// numeric parameter in canonical order, plus the dispatcher axis
    /// for cluster workloads (a named, not numeric, axis — two cluster
    /// cells differing only in dispatcher must not share an id).
    pub fn id_params(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .params()
            .into_iter()
            .map(|(k, val)| format!("{k}={val}"))
            .collect();
        if let WorkloadCell::Cluster { dispatcher, .. } = self {
            v.insert(1, format!("dispatcher={}", dispatcher.label()));
        }
        v
    }

    /// Reads one parameter by name (`None` if the workload has no such
    /// parameter).
    pub fn param(&self, name: &str) -> Option<u64> {
        self.params()
            .into_iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// The ledger key of the workload's headline throughput metric, if
    /// it has one.
    pub fn metric_key(&self) -> Option<&'static str> {
        match self {
            WorkloadCell::Volano { .. }
            | WorkloadCell::Mega { .. }
            | WorkloadCell::Cluster { .. } => Some("messages"),
            WorkloadCell::Httpd { .. } => Some("requests_served"),
            WorkloadCell::Kbuild { .. } | WorkloadCell::Stress { .. } | WorkloadCell::RtMix => None,
        }
    }

    /// The VolanoMark parameters of a chat-shaped workload (`volano`,
    /// `mega`, `cluster`): the one place cell parameters become a
    /// [`VolanoConfig`].
    ///
    /// # Panics
    ///
    /// Panics for the workloads that are not chat-shaped.
    pub fn volano_config(&self) -> VolanoConfig {
        let (rooms, users, messages, think) = match *self {
            WorkloadCell::Volano {
                rooms,
                users,
                messages,
                think,
            }
            | WorkloadCell::Mega {
                rooms,
                users,
                messages,
                think,
            }
            | WorkloadCell::Cluster {
                rooms,
                users,
                messages,
                think,
                ..
            } => (rooms, users, messages, think),
            _ => unreachable!("{} is not a chat-shaped workload", self.name()),
        };
        VolanoConfig {
            rooms: rooms as usize,
            users_per_room: users as usize,
            messages_per_user: messages as usize,
            think_cycles: think,
            ..VolanoConfig::default()
        }
    }

    /// Populates one machine with this workload's tasks and pipes.
    ///
    /// # Panics
    ///
    /// Panics for [`WorkloadCell::Cluster`], which spans machines — see
    /// [`populate_cluster`](WorkloadCell::populate_cluster).
    pub fn populate(&self, m: &mut Machine) {
        match *self {
            WorkloadCell::Volano { .. } | WorkloadCell::Mega { .. } => {
                volanomark::build(m, &self.volano_config())
            }
            WorkloadCell::Kbuild { jobs, units } => kbuild::build(
                m,
                &KbuildConfig {
                    jobs: jobs as usize,
                    translation_units: units as usize,
                    ..KbuildConfig::default()
                },
            ),
            WorkloadCell::Httpd {
                clients,
                workers,
                requests,
            } => httpd::build(
                m,
                &HttpdConfig {
                    clients: clients as usize,
                    workers: workers as usize,
                    requests_per_client: requests as usize,
                    ..HttpdConfig::default()
                },
            ),
            WorkloadCell::Stress {
                tasks,
                rounds,
                burst,
            } => stress::build(
                m,
                &StressConfig {
                    tasks: tasks as usize,
                    rounds: rounds as usize,
                    burst,
                    ..StressConfig::default()
                },
            ),
            WorkloadCell::RtMix => rtmix::build(m, &RtMixConfig::default()),
            WorkloadCell::Cluster { .. } => {
                unreachable!("cluster cells populate a Cluster, not one machine")
            }
        }
    }

    /// Shards a [`WorkloadCell::Cluster`] workload across the nodes of
    /// `cluster` under its configured dispatcher.
    pub fn populate_cluster(&self, cluster: &mut Cluster) {
        assert!(
            matches!(self, WorkloadCell::Cluster { .. }),
            "{} cells populate one machine, not a cluster",
            self.name()
        );
        volano::build_sharded(cluster, &self.volano_config());
    }
}

/// The chaos axes of one cell: an optional fault plan, the fault-stream
/// seed, and the differential-oracle toggle.
///
/// The plan is kept as **text** (a preset name or `key=rate` pairs with
/// `;` separators, translated to the machine's `,` form at execution)
/// so a cell stays pure, hashable data; [`execute_cell`] parses it. The
/// default — no faults, no oracle — adds nothing to the cell id, so
/// pre-chaos cache keys and manifests are unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Fault-plan text (`light`, `heavy`, `net`, or `key=rate[;...]`);
    /// `None` injects nothing.
    pub faults: Option<String>,
    /// Seed for the fault RNG streams (independent of the sim seed).
    pub fault_seed: u64,
    /// Replay the O(n) reference scan beside every decision; an
    /// unexplained divergence fails the cell ([`CellError::Oracle`]).
    pub oracle: bool,
}

impl Default for ChaosSpec {
    fn default() -> ChaosSpec {
        ChaosSpec {
            faults: None,
            fault_seed: 1,
            oracle: false,
        }
    }
}

impl ChaosSpec {
    /// Whether this is the default (fault-free, oracle-off) spec.
    pub fn is_default(&self) -> bool {
        *self == ChaosSpec::default()
    }

    /// The machine-format fault plan (lab spec files use `;` between
    /// `key=rate` pairs because `,` splits spec value lists).
    pub fn plan_text(&self) -> Option<String> {
        self.faults.as_ref().map(|f| f.replace(';', ","))
    }
}

/// One point of the sweep grid. Pure data; building and running the
/// machine happens in [`execute_cell`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellConfig {
    /// Scheduler under test.
    pub sched: SchedId,
    /// Machine shape.
    pub shape: Shape,
    /// Lock-plan override; `None` runs the scheduler's declared plan.
    pub lock_plan: Option<LockPlan>,
    /// Simulation seed.
    pub seed: u64,
    /// The workload and its pinned parameters.
    pub workload: WorkloadCell,
    /// Fault injection and oracle settings (default: off).
    pub chaos: ChaosSpec,
}

impl CellConfig {
    /// The cell's canonical identity string: every axis value in fixed
    /// order. Two cells with equal ids are the same experiment; the
    /// cache key is a hash of this id plus the crate version and cache
    /// format (see `cache`). `compare` matches cells across manifests by
    /// this id, so it deliberately excludes versions.
    pub fn id(&self) -> String {
        let params = self.workload.id_params();
        let mut id = format!(
            "{}[{}]|sched={}|shape={}|plan={}|seed={}",
            self.workload.name(),
            params.join(","),
            self.sched.id_token(),
            self.shape.label(),
            self.lock_plan.map_or("default".to_string(), |p| p.label()),
            self.seed
        );
        // Chaos axes appear only when active, so every pre-chaos cell id
        // (and with it every cache key and baseline manifest) is stable.
        if let Some(f) = &self.chaos.faults {
            id.push_str(&format!("|faults={f}|fseed={}", self.chaos.fault_seed));
        }
        if self.chaos.oracle {
            id.push_str("|oracle=on");
        }
        id
    }

    /// The machine configuration this cell runs on: its shape's
    /// calibrated defaults plus seed, lock plan and chaos axes (the node
    /// template, for a cluster cell — its fault text names *cluster*
    /// classes and goes to [`cluster_config`](CellConfig::cluster_config)).
    /// A fault-free cell keeps the machine's default fault seed.
    pub fn machine_config(&self) -> Result<MachineConfig, String> {
        let mut cfg = self
            .shape
            .machine()
            .with_seed(self.seed)
            .with_lock_plan(self.lock_plan)
            .with_oracle(self.chaos.oracle);
        if matches!(self.workload, WorkloadCell::Mega { .. }) {
            // Mega cells gate the engine itself: record dispatch throughput.
            cfg = cfg.with_engine_metrics(true);
            // CI's self-test knob: an injected per-dispatch busy loop that
            // changes wall time but no virtual result, used to prove the
            // wall_ratio gate actually trips (see `.github/workflows`).
            if let Ok(v) = std::env::var("ELSC_ENGINE_SLOWDOWN") {
                let f = v
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad ELSC_ENGINE_SLOWDOWN '{v}'"))?;
                cfg = cfg.with_engine_slowdown(f);
            }
        }
        if !matches!(self.workload, WorkloadCell::Cluster { .. }) {
            if let Some(text) = self.chaos.plan_text() {
                let plan: FaultPlan = text.parse().map_err(|e| format!("bad fault plan: {e}"))?;
                cfg = cfg
                    .with_faults(Some(plan))
                    .with_fault_seed(self.chaos.fault_seed);
            }
        }
        Ok(cfg)
    }

    /// The federation a [`WorkloadCell::Cluster`] cell runs on: `nodes`
    /// machines of [`machine_config`](CellConfig::machine_config) under
    /// the cell's dispatcher and cluster fault plan.
    pub fn cluster_config(&self) -> Result<ClusterConfig, String> {
        let WorkloadCell::Cluster {
            nodes, dispatcher, ..
        } = self.workload
        else {
            unreachable!("{} cells have no cluster config", self.workload.name())
        };
        let mut ccfg = ClusterConfig::new(nodes as usize, dispatcher, self.machine_config()?);
        if let Some(text) = self.chaos.plan_text() {
            let plan: ClusterFaultPlan = text
                .parse()
                .map_err(|e| format!("bad cluster fault plan: {e}"))?;
            ccfg = ccfg
                .with_faults(Some(plan))
                .with_fault_seed(self.chaos.fault_seed);
        }
        Ok(ccfg)
    }
}

impl fmt::Display for CellConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// Why a cell failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellError {
    /// The machine run failed (watchdog or deadlock).
    Run(String),
    /// The run completed but the cycle-attribution conservation
    /// invariant did not hold — the measurement cannot be trusted.
    Conservation,
    /// The differential oracle saw unexplained divergences from the
    /// O(n) reference scan, or a run-queue invariant violation — the
    /// scheduler broke the paper's §5 equivalence claim.
    Oracle(String),
    /// The workload (or scheduler) panicked while executing the cell.
    Panic(String),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Run(e) => write!(f, "run failed: {e}"),
            CellError::Conservation => f.write_str("cycle-attribution conservation check failed"),
            CellError::Oracle(e) => write!(f, "oracle: {e}"),
            CellError::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl std::error::Error for CellError {}

/// The numbers `compare` gates on and `lab render` prints —
/// extracted from a [`RunReport`] into a flat, manifest-friendly form.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// Elapsed virtual seconds.
    pub elapsed_secs: f64,
    /// Headline workload throughput in events per virtual second
    /// (0 for workloads without one).
    pub throughput: f64,
    /// Entries into `schedule()`.
    pub sched_calls: u64,
    /// Mean cycles per `schedule()` call (spin included) — the paper's
    /// Figure 5 metric and the primary schedule-cost gate.
    pub cycles_per_schedule: f64,
    /// Mean candidate tasks examined per `schedule()` call.
    pub tasks_examined_per_schedule: f64,
    /// Scheduler share of busy CPU time — the §4 kernel-share gate.
    pub sched_time_share: f64,
    /// Entries into the counter-recalculation loop (Figure 2).
    pub recalc_entries: u64,
    /// Recalc loop iterations (tasks recalculated).
    pub recalc_tasks: u64,
    /// Tasks scheduled onto a new processor (Figure 6).
    pub picked_new_cpu: u64,
    /// `sys_sched_yield()` calls.
    pub yields: u64,
    /// Context switches.
    pub ctx_switches: u64,
    /// `wake_up_process()` calls.
    pub wakeups: u64,
    /// Cycles spent spinning on run-queue lock domains.
    pub lock_spin_cycles: u64,
    /// Run-queue lock-domain acquisitions.
    pub lock_acquisitions: u64,
    /// Tasks created over the run.
    pub tasks_spawned: u64,
    /// Simulator event-dispatch throughput (events per virtual second),
    /// present only for cells run with engine metrics on (the `mega`
    /// workload). `None` keeps every pre-engine manifest byte-identical;
    /// `compare` min-gates this metric only when both manifests carry it.
    pub sim_events_per_sec: Option<f64>,
    /// Verified prediction accuracy of a learned scheduler (hits over
    /// predictions), present only for cells run under `learned:*`.
    /// `compare` min-gates it when both manifests carry it, so a
    /// retrained model that predicts worse trips the gate.
    pub prediction_accuracy: Option<f64>,
    /// Wall-clock execution time divided by the calibrated reference
    /// loop (see [`crate::calibrate`]) — the **one** host-dependent
    /// number in the schema, recorded only for `mega` cells by
    /// [`execute_cell`], never derived from the report. `compare` gates
    /// it at a fixed ratio, not the percentage threshold.
    pub wall_ratio: Option<f64>,
}

impl Metrics {
    /// Extracts the metric set from a run report, given the workload's
    /// headline ledger key.
    pub fn from_report(report: &RunReport, metric_key: Option<&str>) -> Metrics {
        let t = report.stats.total();
        Metrics {
            elapsed_secs: report.elapsed_secs(),
            throughput: metric_key.map_or(0.0, |k| report.per_sec(k)),
            sched_calls: t.sched_calls,
            cycles_per_schedule: t.cycles_per_schedule(),
            tasks_examined_per_schedule: t.tasks_examined_per_schedule(),
            sched_time_share: t.sched_time_share(),
            recalc_entries: t.recalc_entries,
            recalc_tasks: t.recalc_tasks,
            picked_new_cpu: t.picked_new_cpu,
            yields: t.yields,
            ctx_switches: t.ctx_switches,
            wakeups: t.wakeups,
            lock_spin_cycles: report.lock_spin.get(),
            lock_acquisitions: report.lock_acquisitions,
            tasks_spawned: report.tasks_spawned,
            sim_events_per_sec: report.engine.as_ref().map(|e| e.sim_events_per_sec),
            prediction_accuracy: report.learned.as_ref().map(|l| l.accuracy()),
            wall_ratio: None,
        }
    }

    /// The `(name, value)` pairs of every *unconditional* metric in
    /// canonical order — drives both serialization and `compare`'s gate
    /// table. The optional `sim_events_per_sec`, `prediction_accuracy`,
    /// and `wall_ratio` are appended separately by the manifest writer
    /// when present.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("elapsed_secs", self.elapsed_secs),
            ("throughput", self.throughput),
            ("sched_calls", self.sched_calls as f64),
            ("cycles_per_schedule", self.cycles_per_schedule),
            (
                "tasks_examined_per_schedule",
                self.tasks_examined_per_schedule,
            ),
            ("sched_time_share", self.sched_time_share),
            ("recalc_entries", self.recalc_entries as f64),
            ("recalc_tasks", self.recalc_tasks as f64),
            ("picked_new_cpu", self.picked_new_cpu as f64),
            ("yields", self.yields as f64),
            ("ctx_switches", self.ctx_switches as f64),
            ("wakeups", self.wakeups as f64),
            ("lock_spin_cycles", self.lock_spin_cycles as f64),
            ("lock_acquisitions", self.lock_acquisitions as f64),
            ("tasks_spawned", self.tasks_spawned as f64),
        ]
    }
}

/// The outcome of one executed (or cache-loaded) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The extracted metric set.
    pub metrics: Metrics,
    /// The full machine [`RunReport`] rendered as JSON (deterministic:
    /// same cell, same bytes).
    pub report_json: String,
}

/// Executes one cell: builds the machine, populates the workload, runs
/// to completion, checks conservation, and extracts the metrics.
///
/// This is the only place in the lab where a `Machine` exists; callers
/// on worker threads see only `CellConfig` in and `CellResult` out.
pub fn execute_cell(cell: &CellConfig) -> Result<CellResult, CellError> {
    if matches!(cell.workload, WorkloadCell::Cluster { .. }) {
        // Federated cells have their own machinery: N machines, a
        // cluster fault plan (different classes from the machine plan),
        // and a merged report.
        return execute_cluster_cell(cell);
    }
    let cfg = cell.machine_config().map_err(CellError::Run)?;
    let sched = cell.sched.build(cell.shape.topology());
    let wall_start = std::time::Instant::now();
    let mut machine = Machine::new(cfg, sched);
    cell.workload.populate(&mut machine);
    let report = machine.run().map_err(|e| CellError::Run(e.to_string()))?;
    let wall_secs = wall_start.elapsed().as_secs_f64();
    if !report.conservation_ok {
        return Err(CellError::Conservation);
    }
    if let Some(e) = report.oracle_failure() {
        return Err(CellError::Oracle(e));
    }
    let mut metrics = Metrics::from_report(&report, cell.workload.metric_key());
    if matches!(cell.workload, WorkloadCell::Mega { .. }) {
        // Wall-clock is deliberately host-dependent: it is the only
        // signal that catches a dispatch loop that got slower while
        // producing byte-identical virtual results. Mega cells only —
        // everything else stays a pure function of the cell.
        metrics.wall_ratio = Some(crate::calibrate::wall_ratio(wall_secs));
    }
    Ok(CellResult {
        metrics,
        report_json: report.to_json(),
    })
}

/// Executes a federated cluster cell: N machines of the cell's shape,
/// the workload sharded by the cell's dispatcher, conservation and
/// oracle checked per node, metrics merged across the cluster.
fn execute_cluster_cell(cell: &CellConfig) -> Result<CellResult, CellError> {
    let ccfg = cell.cluster_config().map_err(CellError::Run)?;
    let topo = cell.shape.topology();
    let mut cluster = Cluster::new(ccfg, |_node| cell.sched.build(topo));
    cell.workload.populate_cluster(&mut cluster);
    let report = cluster.run().map_err(|e| CellError::Run(e.to_string()))?;
    for (n, node) in report.nodes.iter().enumerate() {
        if !node.conservation_ok {
            return Err(CellError::Conservation);
        }
        if let Some(e) = node.oracle_failure() {
            return Err(CellError::Oracle(format!("node {n}: {e}")));
        }
    }
    Ok(CellResult {
        metrics: cluster_metrics(&report),
        report_json: report.to_json(),
    })
}

/// Merges per-node reports into the lab's flat metric schema: counters
/// sum across nodes, rates derive from the summed counters, and elapsed
/// is the cluster makespan — so cluster cells gate through `compare`
/// exactly like single-machine cells.
fn cluster_metrics(report: &elsc_cluster::ClusterReport) -> Metrics {
    let t = report
        .nodes
        .iter()
        .map(|n| n.stats.total())
        .reduce(|a, b| a + b)
        .expect("a cluster has at least one node");
    Metrics {
        elapsed_secs: report.elapsed_secs(),
        throughput: report.per_sec("messages"),
        sched_calls: t.sched_calls,
        cycles_per_schedule: t.cycles_per_schedule(),
        tasks_examined_per_schedule: t.tasks_examined_per_schedule(),
        sched_time_share: t.sched_time_share(),
        recalc_entries: t.recalc_entries,
        recalc_tasks: t.recalc_tasks,
        picked_new_cpu: t.picked_new_cpu,
        yields: t.yields,
        ctx_switches: t.ctx_switches,
        wakeups: t.wakeups,
        lock_spin_cycles: report.nodes.iter().map(|n| n.lock_spin.get()).sum(),
        lock_acquisitions: report.nodes.iter().map(|n| n.lock_acquisitions).sum(),
        tasks_spawned: report.nodes.iter().map(|n| n.tasks_spawned).sum(),
        sim_events_per_sec: None,
        prediction_accuracy: None,
        wall_ratio: None,
    }
}

// Compile-time Send audit (see DESIGN.md §7): configs cross into worker
// threads, results cross back. `Machine` is deliberately *not* Send —
// workload behaviours hold `Rc` state — so it must never appear in
// either direction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CellConfig>();
    assert_send_sync::<CellResult>();
    assert_send_sync::<CellError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_volano(sched: SchedId, shape: Shape, seed: u64) -> CellConfig {
        CellConfig {
            sched,
            shape,
            lock_plan: None,
            seed,
            workload: WorkloadCell::Volano {
                rooms: 1,
                users: 4,
                messages: 2,
                think: 0,
            },
            chaos: ChaosSpec::default(),
        }
    }

    #[test]
    fn shape_parse_round_trips() {
        for s in ["UP", "1P", "2P", "4P", "16P"] {
            let shape: Shape = s.parse().unwrap();
            assert_eq!(shape.label(), s);
        }
        // Any width labels as itself, not just the paper's 1/2/4.
        assert_eq!(Shape::Smp(8).label(), "8P");
        assert_eq!("up".parse::<Shape>().unwrap(), Shape::Up);
        assert_eq!("4p".parse::<Shape>().unwrap(), Shape::Smp(4));
        assert!("0P".parse::<Shape>().is_err());
        assert!("quad".parse::<Shape>().is_err());
    }

    #[test]
    fn topo_shape_parse_canonicalizes() {
        // Multi-level trees are their own shape; flat trees collapse to
        // the plain SMP spelling (same cell ids, same cache entries).
        let t: Shape = "2N4C2T".parse().unwrap();
        assert_eq!(t.label(), "2N4C2T");
        assert_eq!(t.nr_cpus(), 16);
        assert!(!t.topology().is_flat());
        assert_eq!("1N4C1T".parse::<Shape>().unwrap(), Shape::Smp(4));
        assert!("2N0C1T".parse::<Shape>().is_err());
    }

    #[test]
    fn bubble_parses_but_stays_out_of_all() {
        let b: SchedId = "bubble".parse().unwrap();
        assert_eq!(b, SchedId::Bubble);
        assert!(!SchedId::ALL.contains(&SchedId::Bubble));
        let topo: Topology = "2N2C1T".parse().unwrap();
        assert_eq!(SchedId::Bubble.build(topo).name(), "bubble");
    }

    #[test]
    fn topo_cell_executes_with_a_clean_oracle() {
        let mut cell = tiny_volano(SchedId::Bubble, "2N2C1T".parse().unwrap(), 11);
        cell.chaos.oracle = true;
        let r = execute_cell(&cell).expect("topology cell completes clean");
        assert!(
            r.report_json.contains("\"topology\":{\"shape\":\"2N2C1T\""),
            "topology summary embedded: {}",
            r.report_json
        );
        assert!(cell.id().contains("shape=2N2C1T"), "{}", cell.id());
        // Deterministic like every other cell.
        let again = execute_cell(&cell).unwrap();
        assert_eq!(r.report_json, again.report_json);
    }

    #[test]
    fn sched_parse_round_trips() {
        for k in SchedId::ALL {
            assert_eq!(k.label().parse::<SchedId>().unwrap(), k);
            assert_eq!(k.build(Topology::flat(2)).name(), k.label());
        }
        assert!("cfs".parse::<SchedId>().is_err());
    }

    #[test]
    fn a_file_that_fails_to_load_is_reported_against_its_path() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        // A policy diagnostic is clickable: PATH:line:col: message.
        let pol = format!("{root}/policies/bad/undefined_var.pol");
        let err = format!("policy:{pol}").parse::<SchedId>().unwrap_err();
        assert!(err.starts_with(&format!("{pol}:6:16: ")), "{err}");
        // A model has no positions, but still names the file.
        let not_a_model = format!("{root}/policies/rr.pol");
        let err = format!("learned:{not_a_model}")
            .parse::<SchedId>()
            .unwrap_err();
        assert!(err.starts_with(&format!("{not_a_model}: ")), "{err}");
    }

    #[test]
    fn policy_sched_id_embeds_source_and_digest() {
        let src = include_str!("../../../policies/rr.pol");
        let id = SchedId::policy("policy:rr", src).unwrap();
        assert_eq!(id.label(), "policy:rr");
        // The id token pins the program *content*, not just the name.
        let token = id.id_token();
        assert!(token.starts_with("policy:rr#"), "{token}");
        let edited = SchedId::policy("policy:rr", format!("{src}\n# tweak\n")).unwrap();
        assert_ne!(
            token,
            edited.id_token(),
            "editing the source moves the digest"
        );
        // A broken program is rejected at construction, with the
        // loader's spanned diagnostic.
        let err = SchedId::policy("policy:bad", "policy p\n").unwrap_err();
        assert!(err.starts_with("policy:bad: "), "{err}");
    }

    #[test]
    fn policy_cell_executes_deterministically() {
        let mut cell = tiny_volano(SchedId::Elsc, Shape::Smp(2), 11);
        cell.sched =
            SchedId::policy("policy:rr", include_str!("../../../policies/rr.pol")).unwrap();
        let one = execute_cell(&cell).expect("policy cell completes");
        let two = execute_cell(&cell).unwrap();
        assert_eq!(one.report_json, two.report_json);
        assert!(one.report_json.contains("\"policy\""), "summary embedded");
        assert!(one.metrics.sched_calls > 0);
    }

    #[test]
    fn policy_reg_cell_survives_the_strict_oracle() {
        let mut cell = tiny_volano(SchedId::Elsc, Shape::Up, 3);
        cell.sched =
            SchedId::policy("policy:reg", include_str!("../../../policies/reg.pol")).unwrap();
        cell.chaos.oracle = true;
        // `policy:reg` is held to the reg equivalence claim: an
        // unexplained divergence would fail the cell.
        execute_cell(&cell).expect("policy:reg is decision-identical to reg");
    }

    #[test]
    fn cell_id_is_canonical_and_axis_sensitive() {
        let a = tiny_volano(SchedId::Elsc, Shape::Up, 1);
        assert_eq!(
            a.id(),
            "volano[rooms=1,users=4,messages=2,think=0]|sched=elsc|shape=UP|plan=default|seed=1"
        );
        let mut b = a.clone();
        b.seed = 2;
        assert_ne!(a.id(), b.id());
        let mut c = a.clone();
        c.lock_plan = Some(LockPlan::PerCpu);
        assert!(c.id().contains("plan=percpu"));
    }

    #[test]
    fn chaos_axes_extend_the_id_only_when_active() {
        let a = tiny_volano(SchedId::Elsc, Shape::Up, 1);
        assert!(!a.id().contains("faults"), "default id unchanged");
        assert!(!a.id().contains("oracle"), "default id unchanged");
        let mut b = a.clone();
        b.chaos.faults = Some("light".to_string());
        b.chaos.fault_seed = 7;
        b.chaos.oracle = true;
        assert!(
            b.id().ends_with("|faults=light|fseed=7|oracle=on"),
            "{}",
            b.id()
        );
        let mut c = b.clone();
        c.chaos.fault_seed = 8;
        assert_ne!(b.id(), c.id(), "fault seed is an axis");
    }

    #[test]
    fn chaos_cell_runs_faulted_with_a_clean_oracle() {
        let mut cell = tiny_volano(SchedId::Elsc, Shape::Up, 5);
        cell.chaos = ChaosSpec {
            faults: Some("light".to_string()),
            fault_seed: 3,
            oracle: true,
        };
        let r = execute_cell(&cell).expect("faulted cell completes");
        assert!(r.report_json.contains("\"chaos\""), "summary embedded");
        // Determinism extends to the fault streams.
        let again = execute_cell(&cell).unwrap();
        assert_eq!(r.report_json, again.report_json);
    }

    #[test]
    fn bad_fault_plan_is_a_run_error() {
        let mut cell = tiny_volano(SchedId::Reg, Shape::Up, 1);
        cell.chaos.faults = Some("banana".to_string());
        match execute_cell(&cell) {
            Err(CellError::Run(e)) => assert!(e.contains("bad fault plan"), "{e}"),
            other => panic!("expected fault-plan error, got {other:?}"),
        }
    }

    #[test]
    fn execute_is_deterministic() {
        let cell = tiny_volano(SchedId::Reg, Shape::Smp(2), 42);
        let one = execute_cell(&cell).unwrap();
        let two = execute_cell(&cell).unwrap();
        assert_eq!(one.report_json, two.report_json);
        assert_eq!(one.metrics, two.metrics);
        assert!(one.metrics.throughput > 0.0);
        assert!(one.metrics.sched_calls > 0);
    }

    #[test]
    fn watchdog_surfaces_as_run_error() {
        // A stress cell that cannot finish within the watchdog: huge
        // bursts on a single CPU.
        let cell = CellConfig {
            sched: SchedId::Reg,
            shape: Shape::Up,
            lock_plan: None,
            seed: 1,
            workload: WorkloadCell::Stress {
                tasks: 4,
                rounds: u64::MAX / 4,
                burst: u64::MAX / 1_000_000,
            },
            chaos: ChaosSpec::default(),
        };
        match execute_cell(&cell) {
            Err(CellError::Run(e)) => assert!(e.contains("watchdog"), "{e}"),
            other => panic!("expected watchdog run error, got {other:?}"),
        }
    }

    fn tiny_cluster(dispatcher: DispatcherId, seed: u64) -> CellConfig {
        CellConfig {
            sched: SchedId::Elsc,
            shape: Shape::Smp(2),
            lock_plan: None,
            seed,
            workload: WorkloadCell::Cluster {
                nodes: 3,
                dispatcher,
                rooms: 3,
                users: 4,
                messages: 2,
                think: 0,
            },
            chaos: ChaosSpec::default(),
        }
    }

    #[test]
    fn cluster_cell_id_carries_the_dispatcher_axis() {
        let a = tiny_cluster(DispatcherId::LeastLoaded, 1);
        assert_eq!(
            a.id(),
            "cluster[nodes=3,dispatcher=least-loaded,rooms=3,users=4,messages=2,think=0]\
             |sched=elsc|shape=2P|plan=default|seed=1"
        );
        let b = tiny_cluster(DispatcherId::ConsistentHash, 1);
        assert_ne!(a.id(), b.id(), "dispatcher is an axis");
    }

    #[test]
    fn cluster_cell_executes_deterministically() {
        let cell = tiny_cluster(DispatcherId::LeastLoaded, 7);
        let one = execute_cell(&cell).expect("cluster cell completes");
        let two = execute_cell(&cell).unwrap();
        assert_eq!(one.report_json, two.report_json);
        assert_eq!(one.metrics, two.metrics);
        assert!(one.report_json.starts_with("{\"kind\":\"cluster\""));
        // Merged metrics really merge: 3 nodes of chat threads.
        assert!(one.metrics.sched_calls > 0);
        assert!(one.metrics.tasks_spawned > 8, "all nodes counted");
        assert!(one.metrics.throughput > 0.0);
    }

    #[test]
    fn cluster_cell_runs_faulted_with_a_clean_oracle() {
        let mut cell = tiny_cluster(DispatcherId::RoundRobin, 5);
        cell.chaos = ChaosSpec {
            faults: Some("light".to_string()),
            fault_seed: 3,
            oracle: true,
        };
        let r = execute_cell(&cell).expect("faulted cluster cell completes");
        assert!(r.report_json.contains("\"cluster_faults\""));
        let again = execute_cell(&cell).unwrap();
        assert_eq!(r.report_json, again.report_json);
    }

    #[test]
    fn bad_cluster_fault_plan_is_a_run_error() {
        let mut cell = tiny_cluster(DispatcherId::LeastLoaded, 1);
        // A *machine* fault class is not a cluster fault class.
        cell.chaos.faults = Some("ipi_drop=0.5".to_string());
        match execute_cell(&cell) {
            Err(CellError::Run(e)) => assert!(e.contains("bad cluster fault plan"), "{e}"),
            other => panic!("expected cluster fault-plan error, got {other:?}"),
        }
    }

    #[test]
    fn mega_cell_carries_engine_metrics() {
        let cell = CellConfig {
            sched: SchedId::Elsc,
            shape: Shape::Smp(2),
            lock_plan: None,
            seed: 6,
            workload: WorkloadCell::Mega {
                rooms: 2,
                users: 4,
                messages: 2,
                think: 0,
            },
            chaos: ChaosSpec::default(),
        };
        assert!(cell.id().starts_with("mega["), "{}", cell.id());
        let r = execute_cell(&cell).expect("mega cell completes");
        let eps = r.metrics.sim_events_per_sec.expect("engine metrics on");
        assert!(eps > 0.0);
        assert!(r.report_json.contains("\"engine\""), "summary embedded");
        // Deterministic like every other cell — the engine summary is
        // derived from virtual time, never the host clock.
        let again = execute_cell(&cell).unwrap();
        assert_eq!(r.report_json, again.report_json);
        // The identical volano cell carries no engine summary.
        let mut plain = cell.clone();
        plain.workload = WorkloadCell::Volano {
            rooms: 2,
            users: 4,
            messages: 2,
            think: 0,
        };
        let p = execute_cell(&plain).unwrap();
        assert_eq!(p.metrics.sim_events_per_sec, None);
        assert!(!p.report_json.contains("\"engine\""));
        // Mega cells carry the calibrated wall-clock ratio; plain cells
        // never do (it is the one host-dependent metric in the schema).
        let ratio = r.metrics.wall_ratio.expect("mega cells are wall-timed");
        assert!(ratio > 0.0);
        assert_eq!(p.metrics.wall_ratio, None);
    }

    #[test]
    fn learned_sched_id_embeds_model_and_digest() {
        let src = include_str!("../../../models/volano-logreg.model");
        let id = SchedId::learned("learned:volano-logreg", src).unwrap();
        assert_eq!(id.label(), "learned:volano-logreg");
        // The id token pins the model *content*, not just the name —
        // retraining dirties exactly these cache entries.
        let token = id.id_token();
        assert!(token.starts_with("learned:volano-logreg#"), "{token}");
        let retrained = src.replace("seed 23062", "seed 23063");
        let other = SchedId::learned("learned:volano-logreg", retrained).unwrap();
        assert_ne!(token, other.id_token(), "retraining moves the digest");
        // A corrupt model file is rejected at construction.
        let err = SchedId::learned("learned:bad", "not a model\n").unwrap_err();
        assert!(err.starts_with("learned:bad: "), "{err}");
    }

    #[test]
    fn learned_cell_executes_deterministically_with_accuracy() {
        let mut cell = tiny_volano(SchedId::Elsc, Shape::Smp(2), 11);
        cell.sched = SchedId::learned(
            "learned:volano-logreg",
            include_str!("../../../models/volano-logreg.model"),
        )
        .unwrap();
        // Relaxed invariants-only oracle (see OracleMode::for_scheduler):
        // a violation would fail the cell.
        cell.chaos.oracle = true;
        let one = execute_cell(&cell).expect("learned cell completes clean");
        let two = execute_cell(&cell).unwrap();
        assert_eq!(one.report_json, two.report_json);
        assert_eq!(one.metrics, two.metrics, "wall_ratio stays None off-mega");
        let acc = one
            .metrics
            .prediction_accuracy
            .expect("learned cells report accuracy");
        assert!((0.0..=1.0).contains(&acc));
        assert!(one.report_json.contains("\"learned\""), "summary embedded");
        // Native cells never carry the metric.
        let reg = execute_cell(&tiny_volano(SchedId::Reg, Shape::Up, 1)).unwrap();
        assert_eq!(reg.metrics.prediction_accuracy, None);
    }

    #[test]
    fn metrics_extraction_matches_report() {
        let cell = tiny_volano(SchedId::Elsc, Shape::Up, 9);
        let r = execute_cell(&cell).unwrap();
        // 4 users × 4 users × 2 messages = 32 deliveries.
        assert!(r.report_json.contains("\"messages\":32"));
        assert_eq!(
            r.metrics.throughput,
            32.0 / r.metrics.elapsed_secs,
            "throughput is the headline ledger rate"
        );
    }
}
