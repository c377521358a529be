//! Sweep specifications: the text format that names an experiment grid,
//! and the builtin specs that reproduce the paper's figures.
//!
//! A spec is a tiny `key = value, value` document (see
//! [`SweepSpec::from_str`]) that pins one workload and lists the axis
//! values to sweep. [`SweepSpec::cells`] expands it into the full
//! cartesian grid of [`CellConfig`]s in a fixed, documented order — the
//! order the manifest lists results in, independent of worker count.

use std::collections::BTreeMap;
use std::str::FromStr;

use elsc_cluster::DispatcherId;
use elsc_sched_api::LockPlan;

use crate::cell::{CellConfig, ChaosSpec, SchedId, Shape, WorkloadCell};

/// The base seed of every builtin sweep (iteration `i` runs on
/// `BASE_SEED + i`); the committed `BENCH_*.json` manifests depend on it.
pub const BASE_SEED: u64 = 0x5EED_CAFE;

/// Workload parameter names in canonical order, plus their defaults.
/// A spec may omit any of these; it may not invent new ones.
fn workload_params(workload: &str) -> Option<&'static [(&'static str, u64)]> {
    match workload {
        "volano" => Some(&[
            ("rooms", 5),
            ("users", 20),
            ("messages", 20),
            ("think", 60_000_000),
        ]),
        "kbuild" => Some(&[("jobs", 4), ("units", 160)]),
        "httpd" => Some(&[("clients", 64), ("workers", 8), ("requests", 10)]),
        "stress" => Some(&[("tasks", 100), ("rounds", 50), ("burst", 20_000)]),
        // Mega-scale engine cells: volano's chat topology (4 threads per
        // user) with engine metrics on. Defaults trade message count for
        // task count — the population, not the per-user traffic, is the
        // thing under test.
        "mega" => Some(&[
            ("rooms", 250),
            ("users", 20),
            ("messages", 1),
            ("think", 60_000_000),
        ]),
        "cluster" => Some(&[
            ("nodes", 2),
            ("rooms", 4),
            ("users", 8),
            ("messages", 4),
            ("think", 60_000_000),
        ]),
        _ => None,
    }
}

/// Builds a [`WorkloadCell`] from a workload name and a complete
/// parameter assignment (one value per canonical parameter). The
/// dispatcher is an axis only for `cluster`; other workloads ignore it.
fn workload_cell(
    workload: &str,
    dispatcher: DispatcherId,
    vals: &BTreeMap<&str, u64>,
) -> WorkloadCell {
    let p = |k: &str| vals[k];
    match workload {
        "volano" => WorkloadCell::Volano {
            rooms: p("rooms"),
            users: p("users"),
            messages: p("messages"),
            think: p("think"),
        },
        "kbuild" => WorkloadCell::Kbuild {
            jobs: p("jobs"),
            units: p("units"),
        },
        "httpd" => WorkloadCell::Httpd {
            clients: p("clients"),
            workers: p("workers"),
            requests: p("requests"),
        },
        "stress" => WorkloadCell::Stress {
            tasks: p("tasks"),
            rounds: p("rounds"),
            burst: p("burst"),
        },
        "mega" => WorkloadCell::Mega {
            rooms: p("rooms"),
            users: p("users"),
            messages: p("messages"),
            think: p("think"),
        },
        "cluster" => WorkloadCell::Cluster {
            nodes: p("nodes"),
            dispatcher,
            rooms: p("rooms"),
            users: p("users"),
            messages: p("messages"),
            think: p("think"),
        },
        other => unreachable!("workload '{other}' validated at parse time"),
    }
}

/// A parsed sweep specification: one workload, and the list of values
/// for every axis of the experiment grid.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// The sweep's name — the manifest file stem under `results/lab/`.
    pub name: String,
    /// The workload ("volano", "kbuild", "httpd", "stress").
    pub workload: String,
    /// Schedulers to sweep.
    pub scheds: Vec<SchedId>,
    /// Machine shapes to sweep.
    pub shapes: Vec<Shape>,
    /// Lock-plan overrides to sweep; `None` is the scheduler's declared
    /// plan (spelled `default` in spec text).
    pub plans: Vec<Option<LockPlan>>,
    /// Simulation seeds, in run order. When more than one, aggregation
    /// follows the paper's rule: discard the first, mean the rest (see
    /// [`discard_first_mean`](crate::discard_first_mean)).
    pub seeds: Vec<u64>,
    /// Workload parameter axes in the workload's canonical order; every
    /// canonical parameter appears exactly once (defaults filled in).
    pub params: Vec<(String, Vec<u64>)>,
    /// Dispatcher placement policies to sweep — an axis only for the
    /// `cluster` workload (default: least-loaded); rejected elsewhere.
    pub dispatchers: Vec<DispatcherId>,
    /// Fault-plan axis (`none` in spec text is `None`); default: no
    /// faults. Custom `key=rate` plans use `;` between pairs because
    /// `,` separates spec values. For `cluster` the text parses as a
    /// *cluster* fault plan (partition / slow-link / node-pause classes).
    pub faults: Vec<Option<String>>,
    /// Fault-stream seeds; only meaningful for faulted cells.
    pub fault_seeds: Vec<u64>,
    /// Run the differential oracle in every cell (`oracle = on`).
    pub oracle: bool,
}

impl FromStr for SweepSpec {
    type Err = String;

    /// Parses the spec text format: one `key = value[, value...]` per
    /// line, `#` comments, blank lines ignored.
    ///
    /// Recognised keys: `name`, `workload` (both required, single-valued)
    /// and the axes `sched`, `shape`, `plan`, `seed` (defaults: all five
    /// schedulers, the paper's UP/1P/2P/4P shapes, the `default` lock
    /// plan, seed `1`). Seed lists accept Rust-style half-open ranges
    /// (`0..3` is `0, 1, 2`). Any other key must be a parameter of the
    /// chosen workload (e.g. `rooms` for `volano`); omitted parameters
    /// take the workload's paper defaults.
    ///
    /// ```
    /// use elsc_lab::SweepSpec;
    ///
    /// let spec: SweepSpec = "
    ///     name     = example   # Figure 3, abridged
    ///     workload = volano
    ///     sched    = reg, elsc
    ///     shape    = UP, 4P
    ///     seed     = 0..2
    ///     rooms    = 5, 10
    /// "
    /// .parse()
    /// .unwrap();
    /// assert_eq!(spec.name, "example");
    /// // 2 rooms × 2 shapes × 2 schedulers × 2 seeds:
    /// assert_eq!(spec.cells().len(), 16);
    /// assert!("workload = volano".parse::<SweepSpec>().is_err()); // no name
    /// ```
    fn from_str(text: &str) -> Result<SweepSpec, String> {
        // Pass 1: collect raw `key = [values]` pairs.
        let mut raw: Vec<(String, Vec<String>)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, vals) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected 'key = values'", lineno + 1))?;
            let key = key.trim().to_string();
            let vals: Vec<String> = vals
                .split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect();
            if vals.is_empty() {
                return Err(format!("line {}: '{key}' has no values", lineno + 1));
            }
            if raw.iter().any(|(k, _)| *k == key) {
                return Err(format!("line {}: duplicate key '{key}'", lineno + 1));
            }
            raw.push((key, vals));
        }

        // Pass 2: interpret.
        let single = |raw: &[(String, Vec<String>)], key: &str| -> Result<Option<String>, String> {
            match raw.iter().find(|(k, _)| k == key) {
                None => Ok(None),
                Some((_, v)) if v.len() == 1 => Ok(Some(v[0].clone())),
                Some(_) => Err(format!("'{key}' takes exactly one value")),
            }
        };
        let name = single(&raw, "name")?.ok_or("spec is missing 'name'")?;
        let workload = single(&raw, "workload")?.ok_or("spec is missing 'workload'")?;
        let canon = workload_params(&workload).ok_or_else(|| {
            format!("unknown workload '{workload}' (volano|kbuild|httpd|stress|mega|cluster)")
        })?;

        let mut scheds = Vec::new();
        let mut shapes = Vec::new();
        let mut plans = Vec::new();
        let mut seeds = Vec::new();
        let mut dispatchers = Vec::new();
        let mut faults: Vec<Option<String>> = Vec::new();
        let mut fault_seeds = Vec::new();
        let mut oracle = false;
        let mut param_axes: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (key, vals) in &raw {
            match key.as_str() {
                "name" | "workload" => {}
                "sched" => {
                    for v in vals {
                        scheds.push(v.parse::<SchedId>()?);
                    }
                }
                "shape" => {
                    for v in vals {
                        shapes.push(v.parse::<Shape>()?);
                    }
                }
                "plan" => {
                    for v in vals {
                        plans.push(if v == "default" {
                            None
                        } else {
                            Some(v.parse::<LockPlan>()?)
                        });
                    }
                }
                "seed" => seeds.extend(parse_seed_list(vals)?),
                "fault_seed" => fault_seeds.extend(parse_seed_list(vals)?),
                "dispatcher" => {
                    if workload != "cluster" {
                        return Err(format!(
                            "'dispatcher' is an axis of the cluster workload, not '{workload}'"
                        ));
                    }
                    for v in vals {
                        dispatchers.push(v.parse::<DispatcherId>()?);
                    }
                }
                "faults" => {
                    for v in vals {
                        if v == "none" {
                            faults.push(None);
                        } else {
                            // Validate now so a typo fails at parse time,
                            // not mid-sweep. `;` stands in for the
                            // machine's `,` pair separator. Cluster cells
                            // take *cluster* fault classes.
                            let text = v.replace(';', ",");
                            if workload == "cluster" {
                                text.parse::<elsc_cluster::ClusterFaultPlan>()
                                    .map_err(|e| format!("bad cluster fault plan '{v}': {e}"))?;
                            } else {
                                text.parse::<elsc_machine::FaultPlan>()
                                    .map_err(|e| format!("bad fault plan '{v}': {e}"))?;
                            }
                            faults.push(Some(v.clone()));
                        }
                    }
                }
                "oracle" => {
                    if vals.len() != 1 {
                        return Err("'oracle' takes exactly one value".to_string());
                    }
                    oracle = match vals[0].as_str() {
                        "on" | "true" => true,
                        "off" | "false" => false,
                        other => return Err(format!("bad oracle value '{other}' (on|off)")),
                    };
                }
                param => {
                    if !canon.iter().any(|(k, _)| *k == param) {
                        return Err(format!(
                            "'{param}' is not a parameter of workload '{workload}'"
                        ));
                    }
                    let mut axis = Vec::new();
                    for v in vals {
                        axis.push(
                            v.parse::<u64>()
                                .map_err(|_| format!("bad value '{v}' for '{param}'"))?,
                        );
                    }
                    param_axes.insert(param.to_string(), axis);
                }
            }
        }

        // Defaults for omitted axes.
        if scheds.is_empty() {
            scheds = SchedId::ALL.to_vec();
        }
        if shapes.is_empty() {
            shapes = Shape::PAPER.to_vec();
        }
        for sched in &scheds {
            for shape in &shapes {
                sched.fits(&shape.topology())?;
            }
        }
        if plans.is_empty() {
            plans.push(None);
        }
        if seeds.is_empty() {
            seeds.push(1);
        }
        if dispatchers.is_empty() {
            dispatchers.push(DispatcherId::LeastLoaded);
        }
        if faults.is_empty() {
            faults.push(None);
        }
        if fault_seeds.is_empty() {
            fault_seeds.push(1);
        }
        // Parameter axes in the workload's canonical order, defaults
        // filled in for omissions.
        let params = canon
            .iter()
            .map(|&(k, dflt)| {
                let axis = param_axes.remove(k).unwrap_or_else(|| vec![dflt]);
                (k.to_string(), axis)
            })
            .collect();

        Ok(SweepSpec {
            name,
            workload,
            scheds,
            shapes,
            plans,
            seeds,
            dispatchers,
            params,
            faults,
            fault_seeds,
            oracle,
        })
    }
}

/// Parses a seed value list (numbers and half-open `a..b` ranges) —
/// shared by the `seed` and `fault_seed` axes.
fn parse_seed_list(vals: &[String]) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for v in vals {
        if let Some((a, b)) = v.split_once("..") {
            let a: u64 = a.trim().parse().map_err(|_| bad_seed(v))?;
            let b: u64 = b.trim().parse().map_err(|_| bad_seed(v))?;
            if a >= b {
                return Err(format!("empty seed range '{v}'"));
            }
            seeds.extend(a..b);
        } else {
            seeds.push(v.parse().map_err(|_| bad_seed(v))?);
        }
    }
    Ok(seeds)
}

fn bad_seed(v: &str) -> String {
    format!("bad seed '{v}' (a number or a half-open range a..b)")
}

impl SweepSpec {
    /// Expands the grid into cells in the canonical order: workload
    /// parameters vary slowest (first parameter outermost), then the
    /// dispatcher (cluster only), then shape, then scheduler, then lock
    /// plan, then seed innermost. Worker count never changes this order
    /// — it is the manifest order.
    pub fn cells(&self) -> Vec<CellConfig> {
        let mut cells = Vec::new();
        // The dispatcher axis exists only for cluster cells; other
        // workloads must not multiply by it.
        let dispatchers: &[DispatcherId] = if self.workload == "cluster" {
            &self.dispatchers
        } else {
            &[DispatcherId::LeastLoaded]
        };
        // Odometer over the parameter axes.
        let mut idx = vec![0usize; self.params.len()];
        loop {
            let vals: BTreeMap<&str, u64> = self
                .params
                .iter()
                .zip(&idx)
                .map(|((k, axis), &i)| (k.as_str(), axis[i]))
                .collect();
            for &dispatcher in dispatchers {
                let workload = workload_cell(&self.workload, dispatcher, &vals);
                for &shape in &self.shapes {
                    for sched in &self.scheds {
                        for &lock_plan in &self.plans {
                            for &seed in &self.seeds {
                                for f in &self.faults {
                                    // A fault-free cell does not consume the
                                    // fault-seed axis: its id (and result)
                                    // would be identical for every value.
                                    let fseeds: &[u64] = match f {
                                        Some(_) => &self.fault_seeds,
                                        None => &[1],
                                    };
                                    for &fault_seed in fseeds {
                                        cells.push(CellConfig {
                                            sched: sched.clone(),
                                            shape,
                                            lock_plan,
                                            seed,
                                            workload: workload.clone(),
                                            chaos: ChaosSpec {
                                                faults: f.clone(),
                                                fault_seed,
                                                oracle: self.oracle,
                                            },
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Advance the odometer (last axis fastest).
            let mut done = true;
            for i in (0..idx.len()).rev() {
                idx[i] += 1;
                if idx[i] < self.params[i].1.len() {
                    done = false;
                    break;
                }
                idx[i] = 0;
            }
            if done || idx.is_empty() {
                break;
            }
        }
        cells
    }

    /// The builtin spec reproducing one paper artifact, or `None` for an
    /// unknown name. The figure builtins and `contention` honour two
    /// environment knobs: `ELSC_MESSAGES` (messages per user, default 20)
    /// and `ELSC_ITERATIONS` (seeds per cell, default 1; the first run
    /// is discarded as warm-up when more than one, per §6). The `mega`
    /// builtin additionally honours `ELSC_MEGA_ROOMS` (a rooms list
    /// replacing the default `50, 250` axis — e.g. `1250` for a
    /// 100k-task scale-up run).
    pub fn builtin(name: &str) -> Option<SweepSpec> {
        let messages = env_u64("ELSC_MESSAGES", 20);
        let iterations = env_u64("ELSC_ITERATIONS", 1).max(1);
        let seeds = format!("{BASE_SEED}..{}", BASE_SEED + iterations);
        let text = match name {
            // Tiny grid for CI smoke runs and the committed baseline:
            // cold-cache seconds, every scheduler exercised.
            "smoke" => format!(
                "name = smoke\n\
                 workload = volano\n\
                 sched = reg, elsc, heap, aheap, mq\n\
                 shape = UP, 2P\n\
                 seed = {BASE_SEED}\n\
                 rooms = 1\n users = 4\n messages = 2\n think = 0\n"
            ),
            // Figure 2: recalc-loop entries, saturated and think-bound.
            "figure2" => format!(
                "name = figure2\n\
                 workload = volano\n\
                 sched = elsc, reg\n\
                 shape = UP, 1P, 2P, 4P\n\
                 seed = {seeds}\n\
                 rooms = 10\n messages = {messages}\n\
                 think = 60000000, 150000000\n"
            ),
            // Figure 3: throughput vs rooms. Figure 4 (20-room/5-room
            // scaling) reads the same grid, so its cells cache-share.
            "figure3" => format!(
                "name = figure3\n\
                 workload = volano\n\
                 sched = elsc, reg\n\
                 shape = UP, 1P, 2P, 4P\n\
                 seed = {seeds}\n\
                 rooms = 5, 10, 15, 20\n messages = {messages}\n"
            ),
            "figure4" => format!(
                "name = figure4\n\
                 workload = volano\n\
                 sched = elsc, reg\n\
                 shape = UP, 1P, 2P, 4P\n\
                 seed = {seeds}\n\
                 rooms = 5, 20\n messages = {messages}\n"
            ),
            // Figures 5 and 6 share one 10-room grid over both schedulers
            // and all four shapes.
            "figure5" | "figure6" => format!(
                "name = {name}\n\
                 workload = volano\n\
                 sched = elsc, reg\n\
                 shape = UP, 1P, 2P, 4P\n\
                 seed = {seeds}\n\
                 rooms = 10\n messages = {messages}\n"
            ),
            // Table 2: kernel compile, {reg, elsc} × {UP, 2P}.
            "table2" => format!(
                "name = table2\n\
                 workload = kbuild\n\
                 sched = reg, elsc\n\
                 shape = UP, 2P\n\
                 seed = {seeds}\n\
                 jobs = 4\n units = 160\n"
            ),
            // Chaos sweep: every scheduler under the oracle, clean and
            // faulted. Any unexplained divergence from the O(n)
            // reference scan fails its cell (the §5 equivalence gate).
            "chaos" => format!(
                "name = chaos\n\
                 workload = volano\n\
                 sched = reg, elsc, heap, aheap, mq\n\
                 shape = UP, 2P\n\
                 seed = {BASE_SEED}\n\
                 oracle = on\n\
                 faults = none, light, heavy\n\
                 fault_seed = 1, 2\n\
                 rooms = 1\n users = 4\n messages = 2\n think = 0\n"
            ),
            // Topology sweep: every scheduler (plus the tree-native
            // bubble design) across a flat shape and two NUMA/SMT trees,
            // oracle on — divergences a flat scan can't predict must
            // classify as topology-motivated, never unexplained. The
            // flat 2P column doubles as the byte-identity anchor: its
            // cells share ids (and cache entries) with every other
            // sweep's 2P cells.
            "topo" => format!(
                "name = topo\n\
                 workload = volano\n\
                 sched = reg, elsc, heap, aheap, mq, bubble\n\
                 shape = 2P, 2N2C1T, 2N4C2T\n\
                 seed = {BASE_SEED}\n\
                 oracle = on\n\
                 rooms = 2\n users = 6\n messages = 4\n think = 0\n"
            ),
            // Policy-runtime smoke sweep: the native baseline beside the
            // bundled loadable programs, oracle on in every cell (strict
            // for `policy:reg`, relaxed invariants-only for the rest — see
            // `elsc_chaos::OracleMode::for_scheduler`). The sources are
            // embedded at compile time so the builtin works from any
            // working directory; spec *files* can instead say
            // `sched = policy:policies/rr.pol`.
            "policy" => {
                let mut spec: SweepSpec = format!(
                    "name = policy\n\
                     workload = volano\n\
                     shape = UP, 2P\n\
                     seed = {BASE_SEED}\n\
                     oracle = on\n\
                     rooms = 1\n users = 4\n messages = 2\n think = 0\n"
                )
                .parse()
                .expect("builtin specs always parse");
                let bundled = [
                    ("policy:reg", include_str!("../../../policies/reg.pol")),
                    ("policy:rr", include_str!("../../../policies/rr.pol")),
                    ("policy:table", include_str!("../../../policies/table.pol")),
                ];
                spec.scheds = std::iter::once(SchedId::Reg)
                    .chain(bundled.into_iter().map(|(name, src)| {
                        SchedId::policy(name, src).expect("bundled policies verify")
                    }))
                    .collect();
                return Some(spec);
            }
            // Federated cluster sweep: nodes × dispatcher × {reg, elsc}
            // on the acceptance grid. Thinkless so the fabric, not the
            // clients, bounds the run; CI-sized like smoke.
            "cluster" => format!(
                "name = cluster\n\
                 workload = cluster\n\
                 sched = reg, elsc\n\
                 shape = 2P\n\
                 seed = {BASE_SEED}\n\
                 dispatcher = least-loaded, consistent-hash\n\
                 nodes = 1, 2, 4\n\
                 rooms = 4\n users = 8\n messages = 4\n think = 0\n"
            ),
            // Mega-scale engine gate: volano-shaped populations of 4k
            // and 20k tasks (rooms × 20 users × 4 threads) under reg and
            // elsc, engine metrics on. Think-bound, one message per
            // user: the task *population* — the calendar event queue and
            // the task-table scans — is the thing under test, not
            // per-user traffic. `ELSC_MEGA_ROOMS` replaces the rooms
            // axis for manual scale-up runs (1250 → 100k tasks,
            // 12500 → 1M). `ELSC_MEGA_POLICY=1` adds the bundled
            // `policy:reg` program beside the native designs — policy
            // cells at mega-scale populations are exactly what the
            // bytecode VM exists for.
            "mega" => {
                let rooms = std::env::var("ELSC_MEGA_ROOMS")
                    .ok()
                    .filter(|v| {
                        !v.trim().is_empty()
                            && v.split(',').all(|r| r.trim().parse::<u64>().is_ok())
                    })
                    .unwrap_or_else(|| "50, 250".to_string());
                let mut spec: SweepSpec = format!(
                    "name = mega\n\
                     workload = mega\n\
                     sched = reg, elsc\n\
                     shape = 2P\n\
                     seed = {BASE_SEED}\n\
                     rooms = {rooms}\n users = 20\n messages = 1\n think = 60000000\n"
                )
                .parse()
                .expect("builtin specs always parse");
                if std::env::var("ELSC_MEGA_POLICY").is_ok_and(|v| v == "1") {
                    spec.scheds.push(
                        SchedId::policy("policy:reg", include_str!("../../../policies/reg.pol"))
                            .expect("bundled policies verify"),
                    );
                }
                return Some(spec);
            }
            // Learned-scheduler sweep: the two native baselines beside
            // the bundled trained models (a logistic regression and a
            // tiny MLP, both trained on a committed UP volano decision
            // trace — see `crates/learn` and `models/`), oracle on in
            // every cell (strict for reg/elsc, relaxed invariants-only
            // for `learned:*`). The model files are embedded at compile
            // time like the bundled policies; spec *files* can instead
            // say `sched = learned:models/volano-logreg.model`. The
            // manifest carries each learned cell's verified
            // `prediction_accuracy` beside `cycles_per_schedule` —
            // accuracy vs overhead is the sweep's whole point.
            "learn" => {
                let mut spec: SweepSpec = format!(
                    "name = learn\n\
                     workload = volano\n\
                     shape = UP, 2P\n\
                     seed = {BASE_SEED}\n\
                     oracle = on\n\
                     rooms = 1\n users = 4\n messages = 2\n think = 0\n"
                )
                .parse()
                .expect("builtin specs always parse");
                let bundled = [
                    (
                        "learned:volano-logreg",
                        include_str!("../../../models/volano-logreg.model"),
                    ),
                    (
                        "learned:volano-mlp",
                        include_str!("../../../models/volano-mlp.model"),
                    ),
                ];
                spec.scheds = [SchedId::Reg, SchedId::Elsc]
                    .into_iter()
                    .chain(bundled.into_iter().map(|(name, src)| {
                        SchedId::learned(name, src).expect("bundled models parse")
                    }))
                    .collect();
                return Some(spec);
            }
            // §4 kernel-share claim: 5 vs 25 rooms, UP and 4P.
            "kernel_share" => format!(
                "name = kernel_share\n\
                 workload = volano\n\
                 sched = reg, elsc\n\
                 shape = UP, 4P\n\
                 seed = {seeds}\n\
                 rooms = 5, 25\n messages = {messages}\n"
            ),
            // §7/§8 `runqueue_lock` contention: each design under its
            // declared lock plan and under both forced ones, so the
            // shorter-queue effect and the more-locks effect read apart.
            // The `default` rows of reg and elsc are figure3's 20-room
            // cells (cache-shared).
            "contention" => format!(
                "name = contention\n\
                 workload = volano\n\
                 sched = reg, elsc, mq\n\
                 shape = 1P, 2P, 4P\n\
                 plan = default, global, percpu\n\
                 seed = {seeds}\n\
                 rooms = 20\n messages = {messages}\n"
            ),
            // Reference [5], Gooch's yield benchmark: scheduler cost per
            // `sched_yield()` against the number of runnable spinners,
            // every design, UP.
            "gooch" => format!(
                "name = gooch\n\
                 workload = stress\n\
                 shape = UP\n\
                 seed = {BASE_SEED}\n\
                 tasks = 2, 8, 32, 128, 512\n rounds = 40\n burst = 2000\n"
            ),
            // §8's Apache question: 512 clients on a 64-worker pool,
            // every design, 2P and 4P; the renderer reads the latency
            // percentiles out of each cell's embedded report.
            "latency" => format!(
                "name = latency\n\
                 workload = httpd\n\
                 shape = 2P, 4P\n\
                 seed = {BASE_SEED}\n\
                 clients = 512\n workers = 64\n requests = 8\n"
            ),
            _ => return None,
        };
        Some(text.parse().expect("builtin specs always parse"))
    }

    /// Names of every builtin spec, in `--all-figures` run order
    /// (`--all-figures` sweeps the ones the CLI has a renderer for —
    /// the experiment tables — and so skips the gate sweeps `smoke`,
    /// `chaos`, `topo`, `policy`, `cluster`, `mega` and `learn`).
    pub const BUILTINS: [&'static str; 17] = [
        "smoke",
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "figure6",
        "table2",
        "kernel_share",
        "contention",
        "gooch",
        "latency",
        "chaos",
        "topo",
        "policy",
        "cluster",
        "mega",
        "learn",
    ];
}

/// Reads a `u64` environment knob with a default.
fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let spec: SweepSpec = "
            name = t
            workload = volano
            sched = elsc
            shape = UP, 2P
            plan = default, percpu
            seed = 1, 5..7
            rooms = 5, 10
        "
        .parse()
        .unwrap();
        assert_eq!(spec.scheds, vec![SchedId::Elsc]);
        assert_eq!(spec.shapes, vec![Shape::Up, Shape::Smp(2)]);
        assert_eq!(spec.plans, vec![None, Some(LockPlan::PerCpu)]);
        assert_eq!(spec.seeds, vec![1, 5, 6]);
        // rooms axis has 2 values, other volano params defaulted to 1.
        assert_eq!(spec.params[0], ("rooms".to_string(), vec![5, 10]));
        assert_eq!(spec.params[1], ("users".to_string(), vec![20]));
        // 2 rooms × 2 shapes × 1 sched × 2 plans × 3 seeds.
        assert_eq!(spec.cells().len(), 24);
    }

    #[test]
    fn defaults_fill_omitted_axes() {
        let spec: SweepSpec = "name = d\nworkload = kbuild\n".parse().unwrap();
        assert_eq!(spec.scheds, SchedId::ALL.to_vec());
        assert_eq!(spec.shapes, Shape::PAPER.to_vec());
        assert_eq!(spec.plans, vec![None]);
        assert_eq!(spec.seeds, vec![1]);
        assert_eq!(
            spec.params,
            vec![
                ("jobs".to_string(), vec![4]),
                ("units".to_string(), vec![160])
            ]
        );
    }

    #[test]
    fn cell_order_is_canonical_and_stable() {
        let spec: SweepSpec = "
            name = o
            workload = volano
            sched = reg, elsc
            shape = UP
            seed = 1, 2
            rooms = 5, 10
        "
        .parse()
        .unwrap();
        let ids: Vec<String> = spec.cells().iter().map(|c| c.id()).collect();
        // Params outermost, then shape, sched, plan, seed innermost.
        assert!(ids[0].contains("rooms=5") && ids[0].contains("sched=reg"));
        assert!(ids[0].ends_with("seed=1") && ids[1].ends_with("seed=2"));
        assert!(ids[2].contains("sched=elsc"));
        assert!(ids[4].contains("rooms=10"));
        // Re-expansion is identical.
        assert_eq!(ids, spec.cells().iter().map(|c| c.id()).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!("".parse::<SweepSpec>().is_err()); // no name
        assert!("name = x".parse::<SweepSpec>().is_err()); // no workload
        assert!("name = x\nworkload = doom".parse::<SweepSpec>().is_err());
        assert!("name = x\nworkload = volano\nbogus = 1"
            .parse::<SweepSpec>()
            .is_err()); // unknown param
        assert!("name = x\nworkload = volano\nrooms = many"
            .parse::<SweepSpec>()
            .is_err()); // non-numeric
        assert!("name = x\nworkload = volano\nseed = 5..5"
            .parse::<SweepSpec>()
            .is_err()); // empty range
        assert!("name = x\nname = y\nworkload = volano"
            .parse::<SweepSpec>()
            .is_err()); // duplicate key
        assert!("name = x\nworkload = volano\nrooms" // no '='
            .parse::<SweepSpec>()
            .is_err());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let spec: SweepSpec = "
            # a comment
            name = c # trailing comment
            workload = stress

            tasks = 4
        "
        .parse()
        .unwrap();
        assert_eq!(spec.name, "c");
        assert_eq!(spec.params[0], ("tasks".to_string(), vec![4]));
    }

    #[test]
    fn builtins_all_parse_and_expand() {
        for name in SweepSpec::BUILTINS {
            let spec = SweepSpec::builtin(name).unwrap();
            assert_eq!(spec.name, name);
            let cells = spec.cells();
            assert!(!cells.is_empty(), "{name}");
            // Every cell id embeds the full axis tuple.
            for c in &cells {
                assert!(c.id().contains("sched="), "{name}");
            }
        }
        assert!(SweepSpec::builtin("figure9").is_none());
        // figure4's grid is a subset of figure3's (cache sharing).
        let f3: std::collections::BTreeSet<String> = SweepSpec::builtin("figure3")
            .unwrap()
            .cells()
            .iter()
            .map(|c| c.id())
            .collect();
        for c in SweepSpec::builtin("figure4").unwrap().cells() {
            assert!(f3.contains(&c.id()), "figure4 cell not in figure3: {c}");
        }
        // The former `elsc-bench` experiments: 3 designs × 3 shapes × 3
        // plans, 5 designs × 5 queue lengths, 5 designs × 2 shapes.
        for (name, cells) in [("contention", 27), ("gooch", 25), ("latency", 10)] {
            assert_eq!(SweepSpec::builtin(name).unwrap().cells().len(), cells);
        }
        // contention's declared-plan reg/elsc rows are figure3 cells.
        let shared = SweepSpec::builtin("contention").unwrap().cells();
        assert_eq!(shared.iter().filter(|c| f3.contains(&c.id())).count(), 6);
    }

    #[test]
    fn chaos_axes_parse_and_expand() {
        let spec: SweepSpec = "
            name = x
            workload = stress
            sched = elsc
            shape = UP
            oracle = on
            faults = none, light, ipi_drop=0.5;tick_jitter=0.1
            fault_seed = 1..3
            tasks = 4
        "
        .parse()
        .unwrap();
        assert!(spec.oracle);
        assert_eq!(spec.faults.len(), 3);
        assert_eq!(spec.fault_seeds, vec![1, 2]);
        // none consumes no fault-seed axis: 1 + 2×2 cells.
        let cells = spec.cells();
        assert_eq!(cells.len(), 5);
        assert!(cells.iter().all(|c| c.chaos.oracle));
        assert_eq!(cells.iter().filter(|c| c.chaos.faults.is_none()).count(), 1);
        // Ids are all distinct (the axes really are axes).
        let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn chaos_spec_rejects_bad_values() {
        let base = "name = x\nworkload = stress\n";
        assert!(format!("{base}faults = banana")
            .parse::<SweepSpec>()
            .is_err());
        assert!(format!("{base}oracle = maybe")
            .parse::<SweepSpec>()
            .is_err());
        assert!(format!("{base}oracle = on, off")
            .parse::<SweepSpec>()
            .is_err());
        assert!(format!("{base}fault_seed = many")
            .parse::<SweepSpec>()
            .is_err());
    }

    #[test]
    fn chaos_builtin_is_oracle_gated_and_ci_sized() {
        let spec = SweepSpec::builtin("chaos").unwrap();
        assert!(spec.oracle);
        let n = spec.cells().len();
        // 5 scheds × 2 shapes × (1 none + 2 plans × 2 fault seeds).
        assert_eq!(n, 50);
    }

    #[test]
    fn policy_builtin_mixes_native_and_interpreted_cells() {
        let spec = SweepSpec::builtin("policy").unwrap();
        assert!(spec.oracle, "every policy cell runs under the oracle");
        let cells = spec.cells();
        // (1 native + 3 bundled policies) × 2 shapes.
        assert_eq!(cells.len(), 8);
        let ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        assert!(ids.iter().any(|i| i.contains("sched=reg|")));
        for name in ["policy:reg#", "policy:rr#", "policy:table#"] {
            assert!(
                ids.iter().any(|i| i.contains(name)),
                "missing {name} in {ids:?}"
            );
        }
        // CI-sized, like smoke.
        assert!(cells.len() <= 16);
    }

    #[test]
    fn learn_builtin_mixes_native_and_learned_cells() {
        let spec = SweepSpec::builtin("learn").unwrap();
        assert!(spec.oracle, "every learn cell runs under the oracle");
        let cells = spec.cells();
        // (2 native + 2 bundled models) × 2 shapes.
        assert_eq!(cells.len(), 8);
        let ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        assert!(ids.iter().any(|i| i.contains("sched=reg|")));
        assert!(ids.iter().any(|i| i.contains("sched=elsc|")));
        for name in ["learned:volano-logreg#", "learned:volano-mlp#"] {
            assert!(
                ids.iter().any(|i| i.contains(name)),
                "missing {name} in {ids:?}"
            );
        }
        // CI-sized, like smoke and policy.
        assert!(cells.len() <= 16);
    }

    #[test]
    fn spec_files_accept_learned_paths() {
        let model = format!(
            "{}/../../models/volano-logreg.model",
            env!("CARGO_MANIFEST_DIR")
        );
        let spec: SweepSpec = format!(
            "name = l\nworkload = stress\nsched = reg, learned:{model}\nshape = UP\ntasks = 4"
        )
        .parse()
        .unwrap();
        assert_eq!(spec.scheds.len(), 2);
        assert_eq!(spec.scheds[1].label(), "learned:volano-logreg");
        assert!(
            "name = l\nworkload = stress\nsched = learned:/no/such.model"
                .parse::<SweepSpec>()
                .is_err()
        );
    }

    #[test]
    fn spec_files_accept_policy_paths() {
        // Paths in spec text resolve against the working directory, so
        // point at the bundled corpus via the crate manifest dir.
        let pol = format!("{}/../../policies/rr.pol", env!("CARGO_MANIFEST_DIR"));
        let spec: SweepSpec = format!(
            "name = p\nworkload = stress\nsched = reg, policy:{pol}\nshape = UP\ntasks = 4"
        )
        .parse()
        .unwrap();
        assert_eq!(spec.scheds.len(), 2);
        assert_eq!(spec.scheds[1].label(), "policy:rr");
        assert!("name = p\nworkload = stress\nsched = policy:/no/such.pol"
            .parse::<SweepSpec>()
            .is_err());
    }

    #[test]
    fn cluster_spec_sweeps_the_dispatcher_axis() {
        let spec: SweepSpec = "
            name = cl
            workload = cluster
            sched = elsc
            shape = 2P
            dispatcher = round-robin, locality
            nodes = 2, 4
        "
        .parse()
        .unwrap();
        assert_eq!(
            spec.dispatchers,
            vec![DispatcherId::RoundRobin, DispatcherId::Locality]
        );
        let cells = spec.cells();
        // 2 nodes values × 2 dispatchers × 1 shape × 1 sched × 1 seed.
        assert_eq!(cells.len(), 4);
        let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), 4, "dispatcher really is an id axis");
        assert!(
            cells[0].id().contains("dispatcher=round-robin"),
            "{}",
            cells[0]
        );
        // Defaulted: a cluster spec without the key gets least-loaded.
        let dflt: SweepSpec = "name = d\nworkload = cluster\nsched = elsc\nshape = 2P\n"
            .parse()
            .unwrap();
        assert_eq!(dflt.dispatchers, vec![DispatcherId::LeastLoaded]);
    }

    #[test]
    fn cluster_spec_validates_its_own_fault_classes() {
        let base = "name = x\nworkload = cluster\nsched = elsc\nshape = 2P\n";
        // Cluster classes parse; machine classes are rejected.
        let ok: SweepSpec = format!("{base}faults = partition=0.1;slow_link=0.2\n")
            .parse()
            .unwrap();
        assert_eq!(ok.faults.len(), 1);
        assert!(format!("{base}faults = ipi_drop=0.5\n")
            .parse::<SweepSpec>()
            .is_err());
        // And the dispatcher key is cluster-only.
        assert!("name = x\nworkload = volano\ndispatcher = locality\n"
            .parse::<SweepSpec>()
            .is_err());
    }

    #[test]
    fn cluster_builtin_covers_the_acceptance_grid() {
        let spec = SweepSpec::builtin("cluster").unwrap();
        let cells = spec.cells();
        // nodes {1,2,4} × dispatcher {least-loaded, consistent-hash} ×
        // sched {reg, elsc}.
        assert_eq!(cells.len(), 12);
        for d in ["least-loaded", "consistent-hash"] {
            assert!(
                cells
                    .iter()
                    .filter(|c| c.id().contains(&format!("dispatcher={d}")))
                    .count()
                    == 6,
                "{d}"
            );
        }
        assert!(cells.len() <= 16, "cluster must stay CI-sized");
    }

    #[test]
    fn mega_builtin_is_the_engine_gate() {
        let spec = SweepSpec::builtin("mega").unwrap();
        // rooms {50, 250} × sched {reg, elsc} × one shape × one seed.
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert!(cells
            .iter()
            .all(|c| matches!(c.workload, WorkloadCell::Mega { .. })));
        // The populations really are mega-sized relative to the figures:
        // 250 rooms × 20 users × 4 threads = 20k tasks.
        assert!(cells.iter().any(|c| c.workload.param("rooms") == Some(250)));
        // Mega ids never collide with volano baseline ids.
        assert!(cells.iter().all(|c| c.id().starts_with("mega[")));

        // `ELSC_MEGA_POLICY=1` adds the bundled `policy:reg` program
        // beside the native designs. Same test so the
        // env mutation can't race the assertions above.
        std::env::set_var("ELSC_MEGA_POLICY", "1");
        let with_policy = SweepSpec::builtin("mega").unwrap();
        std::env::remove_var("ELSC_MEGA_POLICY");
        assert_eq!(with_policy.cells().len(), 6);
        assert!(with_policy
            .cells()
            .iter()
            .any(|c| c.id().contains("policy:reg#")));
    }

    #[test]
    fn smoke_spec_is_small() {
        let n = SweepSpec::builtin("smoke").unwrap().cells().len();
        assert!(n <= 16, "smoke must stay CI-sized, got {n} cells");
    }
}
