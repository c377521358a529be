//! Sweep specifications: the text format that names an experiment grid,
//! and the builtin specs that reproduce the paper's figures (the
//! committed files `specs/*.spec`; `specs/paper/` holds their
//! paper-length recipes).
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

/// The seed every builtin spec file names (`seed = 1592642302`); the
/// committed `BENCH_*.json` manifests depend on it.
pub const BASE_SEED: u64 = 0x5EED_CAFE;

/// The most cells a spec may declare: seed ranges and axis products past
/// it are parse errors, not allocations. About 6 800× the 154 cells of
/// `--all-figures`.
pub const MAX_CELLS: usize = 1 << 20;

/// A parsed sweep specification: one workload, and the list of values
/// for every axis of the experiment grid.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// The sweep's name — the manifest file stem under `results/lab/`.
    pub name: String,
    /// The workload: a [`WorkloadCell::name`] of the registry.
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

/// [`SweepSpec::BUILTINS`] and their texts from one list of names:
/// builtin `NAME` is the committed file `specs/NAME.spec`.
macro_rules! builtins {
    ($($name:literal),* $(,)?) => {
        /// Names of every builtin spec, in `--all-figures` run order
        /// (`--all-figures` sweeps the ones the CLI has a renderer for —
        /// the experiment tables — and so skips the gate sweeps `smoke`,
        /// `chaos`, `topo`, `policy`, `cluster`, `mega` and `learn`).
        pub const BUILTINS: [&'static str; 17] = [$($name),*];

        /// The text of each of [`BUILTINS`](Self::BUILTINS), in order.
        const TEXTS: [&'static str; 17] =
            [$(include_str!(concat!("../../../specs/", $name, ".spec"))),*];
    };
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
    /// take the workload's lab defaults ([`WorkloadCell::ALL`]).
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
        let base = WorkloadCell::named(&workload).ok_or_else(|| {
            let names: Vec<&str> = WorkloadCell::ALL.iter().map(WorkloadCell::name).collect();
            format!("unknown workload '{workload}' ({})", names.join("|"))
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
                    if !base.takes(key) {
                        return Err(base.refusal(key));
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
                            if matches!(base, WorkloadCell::Cluster { .. }) {
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
                    if !base.takes(param) {
                        return Err(base.refusal(param));
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
        // filled in for omissions. Every value must build on the largest
        // shape (the cluster CPU ceiling grows with it).
        let cpus = shapes.iter().map(|s| s.nr_cpus()).max().unwrap_or(1);
        let mut params = Vec::new();
        for (k, dflt) in base.params() {
            let axis = param_axes.remove(k).unwrap_or_else(|| vec![dflt]);
            for &v in &axis {
                let mut probe = base.clone();
                probe.set(k, v)?;
                probe
                    .check(cpus)
                    .map_err(|(k, v, e)| format!("'{k} = {v}': {e}"))?;
            }
            params.push((k.to_string(), axis));
        }

        let spec = SweepSpec {
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
        };
        match spec.cell_count() {
            Some(n) if n <= MAX_CELLS => Ok(spec),
            _ => Err(format!(
                "the grid declares more than MAX_CELLS = {MAX_CELLS} cells"
            )),
        }
    }
}

/// Parses a seed value list (numbers and half-open `a..b` ranges) —
/// shared by the `seed` and `fault_seed` axes. A list longer than
/// [`MAX_CELLS`] is an error before anything is allocated for it.
fn parse_seed_list(vals: &[String]) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for v in vals {
        if let Some((a, b)) = v.split_once("..") {
            let a: u64 = a.trim().parse().map_err(|_| bad_seed(v))?;
            let b: u64 = b.trim().parse().map_err(|_| bad_seed(v))?;
            if a >= b {
                return Err(format!("empty seed range '{v}'"));
            }
            if b - a > MAX_CELLS.saturating_sub(seeds.len()) as u64 {
                return Err(format!(
                    "seed range '{v}' takes the list past MAX_CELLS = {MAX_CELLS} seeds"
                ));
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
    /// The registry entry the spec names, at its lab defaults.
    fn base(&self) -> WorkloadCell {
        WorkloadCell::named(&self.workload).expect("the workload was validated at parse time")
    }

    /// The dispatcher axis exists only for cluster cells; other workloads
    /// must not multiply by it.
    fn dispatcher_axis(&self) -> &[DispatcherId] {
        if self.base().takes("dispatcher") {
            &self.dispatchers
        } else {
            &[DispatcherId::LeastLoaded]
        }
    }

    /// How many cells [`cells`](Self::cells) expands to, as the product
    /// of the axis lengths; `None` when it overflows `usize`.
    fn cell_count(&self) -> Option<usize> {
        let faulted = self.faults.iter().filter(|f| f.is_some()).count();
        let chaos = faulted
            .checked_mul(self.fault_seeds.len())?
            .checked_add(self.faults.len() - faulted)?;
        self.params
            .iter()
            .map(|(_, axis)| axis.len())
            .chain([
                self.dispatcher_axis().len(),
                self.shapes.len(),
                self.scheds.len(),
                self.plans.len(),
                self.seeds.len(),
                chaos,
            ])
            .try_fold(1usize, usize::checked_mul)
    }

    /// Expands the grid into cells in the canonical order: workload
    /// parameters vary slowest (first parameter outermost), then the
    /// dispatcher (cluster only), then shape, then scheduler, then lock
    /// plan, then seed innermost. Worker count never changes this order
    /// — it is the manifest order.
    pub fn cells(&self) -> Vec<CellConfig> {
        let mut cells = Vec::new();
        let (base, dispatchers) = (self.base(), self.dispatcher_axis());
        // Odometer over the parameter axes.
        let mut idx = vec![0usize; self.params.len()];
        loop {
            let mut workload = base.clone();
            for ((k, axis), &i) in self.params.iter().zip(&idx) {
                workload
                    .set(k, axis[i])
                    .expect("parameters validated at parse time");
            }
            for &dispatcher in dispatchers {
                if let WorkloadCell::Cluster { dispatcher: d, .. } = &mut workload {
                    *d = dispatcher;
                }
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
    /// unknown name: the text of `specs/NAME.spec`, embedded at compile
    /// time so `--spec NAME` works from any working directory. The
    /// paper-length (100 messages per user) grids are the recipes under
    /// `specs/paper/`, swept with `--spec-file`; more seeds per cell are
    /// `seed = A..B` in a spec file (the first run is discarded as
    /// warm-up when more than one, per §6).
    pub fn builtin(name: &str) -> Option<SweepSpec> {
        let i = SweepSpec::BUILTINS.iter().position(|&n| n == name)?;
        let mut spec: SweepSpec = SweepSpec::TEXTS[i]
            .parse()
            .unwrap_or_else(|e| panic!("specs/{name}.spec: {e}"));
        // The bundled programs and models are embedded at compile time
        // too; spec *files* can instead say
        // `sched = policy:policies/rr.pol` or
        // `sched = learned:models/volano-logreg.model`.
        match name {
            "policy" => {
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
            }
            "learn" => {
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
            }
            _ => {}
        }
        Some(spec)
    }

    builtins![
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
        // Sizes the builders cannot take, named in the one-line error:
        // zero-sized workloads panicked a pool worker, and the node count
        // aborted the sweep on its allocation.
        for (workload, line) in [
            ("volano", "rooms = 0"),
            ("httpd", "clients = 0"),
            ("cluster", "nodes = 99999999999"),
        ] {
            let err = format!("name = x\nworkload = {workload}\nsched = elsc\n{line}")
                .parse::<SweepSpec>()
                .unwrap_err();
            assert!(err.contains(line) && !err.contains('\n'), "{line}: {err}");
        }
        // A per-node plan larger than the machine allocates one domain
        // per node, so it is no such size.
        let big = "name = x\nworkload = volano\nsched = elsc\nplan = pernode:99999999999";
        assert!(big.parse::<SweepSpec>().is_ok());
        // Grids past MAX_CELLS, refused before anything is allocated:
        // the seed range aborted on an 800 GB allocation, the fault-seed
        // range on a capacity overflow, and an axis product that fits no
        // `usize` would otherwise be expanded by `cells()`.
        let axis: Vec<String> = (1..=2048).map(|v| v.to_string()).collect();
        let axis = axis.join(", ");
        let overflow = format!(
            "rooms = {axis}\nusers = {axis}\nmessages = {axis}\nthink = {axis}\nseed = 0..1048576"
        );
        for line in [
            "seed = 0..100000000000",
            "faults = light\nfault_seed = 0..18446744073709551615",
            "seed = 0..1048576\nrooms = 1, 2",
            &overflow,
        ] {
            let err = format!("name = x\nworkload = volano\nsched = elsc\n{line}")
                .parse::<SweepSpec>()
                .unwrap_err();
            assert!(
                err.contains("MAX_CELLS") && !err.contains('\n'),
                "{line}: {err}"
            );
        }
    }

    /// The committed spec files: `specs/*.spec` and the paper-length
    /// recipes `specs/paper/*.spec`, as `(path, text)`.
    fn spec_files() -> Vec<(std::path::PathBuf, String)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
        let mut files = Vec::new();
        for dir in [root.clone(), root.join("paper")] {
            for entry in std::fs::read_dir(&dir).expect("specs/ is committed") {
                let path = entry.expect("readable").path();
                if path.extension().is_some_and(|e| e == "spec") {
                    let text = std::fs::read_to_string(&path).expect("readable");
                    files.push((path, text));
                }
            }
        }
        files.sort();
        files
    }

    /// `specs/*.spec` is exactly the builtins, one file each, and every
    /// builtin names [`BASE_SEED`]; each paper recipe `specs/paper/NAME.spec`
    /// is builtin `NAME` with only its `messages` axis changed, to 100.
    #[test]
    fn spec_files_are_the_builtins_and_the_paper_recipes() {
        let files = spec_files();
        let stem = |p: &std::path::Path| p.file_stem().unwrap().to_str().unwrap().to_string();
        let top: Vec<String> = files
            .iter()
            .filter(|(p, _)| !p.parent().unwrap().ends_with("paper"))
            .map(|(p, _)| stem(p))
            .collect();
        let mut builtins = SweepSpec::BUILTINS.map(String::from).to_vec();
        builtins.sort();
        assert_eq!(top, builtins);
        for name in SweepSpec::BUILTINS {
            assert_eq!(
                SweepSpec::builtin(name).unwrap().seeds,
                vec![BASE_SEED],
                "{name}"
            );
        }
        let mut paper: Vec<String> = Vec::new();
        for (path, text) in files
            .iter()
            .filter(|(p, _)| p.parent().unwrap().ends_with("paper"))
        {
            let name = stem(path);
            let recipe: SweepSpec = text.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut want = SweepSpec::builtin(&name).expect("a recipe names a builtin");
            let messages = want.params.iter_mut().find(|(k, _)| k == "messages");
            messages.expect("a recipe's builtin has a messages axis").1 = vec![100];
            assert_eq!(recipe, want, "specs/paper/{name}.spec");
            paper.push(name);
        }
        let figures = ["figure2", "figure3", "figure4", "figure5", "figure6"];
        assert_eq!(
            paper,
            [&["contention"][..], &figures, &["kernel_share"]].concat()
        );
    }

    /// Every spec file, mutated byte by byte and spliced with huge
    /// numbers and ranges, parses to a grid of at most `MAX_CELLS` cells
    /// or is an error — never a panic or an abort.
    #[test]
    fn mutated_builtin_specs_never_panic() {
        use elsc_simcore::SimRng;
        const ALPHABET: &[u8] = b"0123456789.,=#\n PNCT";
        const SPLICES: [&[u8]; 3] = [b"18446744073709551615", b"..", b", 0..4294967296"];
        // Comment lines dropped, so the mutations land on the grammar.
        let texts: Vec<String> = spec_files()
            .into_iter()
            .map(|(_, text)| {
                text.lines()
                    .filter(|l| !l.starts_with('#'))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect();
        let mut rng = SimRng::new(0x5EC_F022);
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        let (mut accepted, mut too_big) = (0, 0);
        for _ in 0..20_000 {
            let mut s: Vec<u8> = texts[pick(texts.len())].bytes().collect();
            for _ in 0..=pick(3) {
                let i = pick(s.len() + 1);
                match pick(4) {
                    0 if i < s.len() => {
                        s.remove(i);
                    }
                    1 if i < s.len() => s[i] = ALPHABET[pick(ALPHABET.len())],
                    2 => drop(s.splice(i..i, SPLICES[pick(SPLICES.len())].iter().copied())),
                    _ => s.insert(i, ALPHABET[pick(ALPHABET.len())]),
                }
            }
            let text = String::from_utf8(s).expect("ASCII");
            match text.parse::<SweepSpec>() {
                Ok(spec) => {
                    accepted += 1;
                    let n = spec.cell_count().expect("an accepted grid fits usize");
                    assert!((1..=MAX_CELLS).contains(&n), "{text}: {n} cells");
                }
                Err(e) => too_big += usize::from(e.contains("MAX_CELLS")),
            }
        }
        assert!(
            accepted > 1_000,
            "the fuzz reaches valid specs ({accepted})"
        );
        assert!(too_big > 100, "and oversized grids ({too_big})");
    }

    /// Every registry workload is a spec workload at its lab defaults,
    /// and a key the workload does not take is refused in one wording.
    #[test]
    fn every_registry_workload_parses_and_foreign_keys_are_refused() {
        for w in WorkloadCell::ALL {
            let spec: SweepSpec = format!(
                "name = r\nworkload = {}\nsched = elsc\nshape = UP",
                w.name()
            )
            .parse()
            .unwrap();
            assert_eq!(spec.cells().len(), 1, "{}", w.name());
            assert_eq!(spec.cells()[0].workload, w);
        }
        for (workload, key) in [
            ("kbuild", "rooms"),
            ("rtmix", "tasks"),
            ("volano", "dispatcher"),
        ] {
            let err = format!("name = x\nworkload = {workload}\n{key} = 1")
                .parse::<SweepSpec>()
                .unwrap_err();
            assert_eq!(
                err,
                format!("'{key}' is not a parameter of workload '{workload}'")
            );
        }
        assert!("name = x\nworkload = volanomark"
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
            assert_eq!(spec.cell_count(), Some(cells.len()), "{name}");
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
    }

    #[test]
    fn smoke_spec_is_small() {
        let n = SweepSpec::builtin("smoke").unwrap().cells().len();
        assert!(n <= 16, "smoke must stay CI-sized, got {n} cells");
    }
}
