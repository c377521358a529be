//! One rep: a fixed input built, run to completion, reported and
//! verified inside this (child) process, timed from outside the crates.
//!
//! Every call into a layer goes through its public API and sits inside a
//! span; nothing here reaches into a crate. The result travels back to
//! the parent harness as one JSON line ([`RepOutput::to_json`]).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use elsc::ElscScheduler;
use elsc_cluster::{volano as cluster_volano, Cluster, ClusterConfig, ClusterReport, DispatcherId};
use elsc_lab::jsonv::Value;
use elsc_lab::{execute_cell, hash, run_sweep, Cache, Metrics, RunOptions, SweepSpec};
use elsc_machine::{Machine, MachineConfig, RunReport, StepStatus};
use elsc_obs::json::{array, escape, num, Obj};
use elsc_obs::JsonLinesSink;
use elsc_policy::PolicyScheduler;
use elsc_sched_api::Scheduler;
use elsc_sched_linux::LinuxScheduler;
use elsc_simcore::Cycles;
use elsc_workloads::{volanomark, VolanoConfig};

use crate::spans::{Recorder, Span};
use crate::stats::median;
use crate::workloads::{Variant, Workload, TABLE_POL};

/// Set-ups timed per rep: at least [`MIN_SETUPS`], more while they have
/// taken less than [`SETUP_BUDGET_S`] in all, at most [`MAX_SETUPS`]. The
/// rep reports their median and runs what the last one built — a 20 µs
/// set-up is timed 31 times, a 60 ms one three times.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 31;
/// See [`MIN_SETUPS`].
pub const SETUP_BUDGET_S: f64 = 0.03;

/// Equal virtual-time slices the traced run phase is stepped in.
pub const SLICES: u64 = 256;

/// Warm sweeps after the cold one in `lab-figure4`.
pub const WARM_SWEEPS: usize = 50;

/// Worker threads of the lab pool — fixed, so the input does not depend
/// on the host; the only threads the benchmark ever starts.
pub const LAB_WORKERS: usize = 2;

/// What the parent asks one child to do.
#[derive(Clone, Debug)]
pub struct RepArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Record fine spans, step the run in slices, run the serial lab pass.
    pub traced: bool,
    /// Virtual makespan in cycles (from an untraced rep) — sizes the
    /// slices of a traced machine run.
    pub makespan: Option<u64>,
    /// `MachineConfig::with_engine_slowdown` factor (1 = none).
    pub slowdown: u64,
    /// Twin-run variant.
    pub variant: Variant,
    /// The benchmark directory (scratch files go under `<dir>/out`).
    pub dir: PathBuf,
}

/// What one rep measured. Times are host seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepOutput {
    /// Why the rep failed, if it did.
    pub error: Option<String>,
    /// Median of the timed set-ups (see [`MIN_SETUPS`]).
    pub setup_s: f64,
    /// The run phase.
    pub run_s: f64,
    /// The report phase.
    pub report_s: f64,
    /// The verify phase (not part of `wall_s`).
    pub verify_s: f64,
    /// Last set-up + run + report.
    pub wall_s: f64,
    /// Simulated `schedule()` decisions (Σ `sched_calls`).
    pub decisions: u64,
    /// `VmHWM` at exit, MB.
    pub peak_rss_mb: Option<f64>,
    /// The virtual record: every value must repeat exactly.
    pub virt: BTreeMap<String, Value>,
    /// Per-layer counts this rep observed.
    pub layer: BTreeMap<String, f64>,
    /// `(events, ns)` per run slice (traced machine reps only).
    pub slices: Vec<(u64, u64)>,
    /// Recorded spans (traced reps only).
    pub spans: Vec<Span>,
}

impl RepOutput {
    /// Whether the rep completed and verified.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// One-line JSON for the parent.
    pub fn to_json(&self) -> String {
        let layer = self
            .layer
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.raw(k, num(*v)));
        let spans = self.spans.iter().map(|s| {
            let o = Obj::new()
                .str("name", &s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            match s.parent {
                Some(p) => o.u64("parent", p as u64),
                None => o.raw("parent", "null"),
            }
            .build()
        });
        let slices = self.slices.iter().map(|(e, ns)| format!("[{e},{ns}]"));
        Obj::new()
            .raw(
                "error",
                self.error
                    .as_ref()
                    .map_or("null".to_string(), |e| escape(e)),
            )
            .raw("setup_s", num(self.setup_s))
            .raw("run_s", num(self.run_s))
            .raw("report_s", num(self.report_s))
            .raw("verify_s", num(self.verify_s))
            .raw("wall_s", num(self.wall_s))
            .u64("decisions", self.decisions)
            .raw(
                "peak_rss_mb",
                self.peak_rss_mb.map_or("null".to_string(), num),
            )
            .raw("virt", virt_json(&self.virt))
            .raw("layer", layer.build())
            .raw("slices", array(slices))
            .raw("spans", array(spans))
            .build()
    }

    /// Parses what [`RepOutput::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<RepOutput, String> {
        let v = Value::parse(text)?;
        let f = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("rep output lacks number '{k}'"))
        };
        let obj = |k: &str| match v.get(k) {
            Some(Value::Obj(m)) => Ok(m.clone()),
            _ => Err(format!("rep output lacks object '{k}'")),
        };
        let arr = |k: &str| {
            v.get(k)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("rep output lacks array '{k}'"))
        };
        let mut slices = Vec::new();
        for s in arr("slices")? {
            match s.as_arr() {
                Some([e, ns]) => slices.push((
                    e.as_f64().ok_or("bad slice")? as u64,
                    ns.as_f64().ok_or("bad slice")? as u64,
                )),
                _ => return Err("bad slice".to_string()),
            }
        }
        let mut spans = Vec::new();
        for s in arr("spans")? {
            let n = |k: &str| s.get(k).and_then(Value::as_f64).ok_or("bad span");
            spans.push(Span {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("bad span")?
                    .to_string(),
                start_ns: n("start_ns")? as u64,
                end_ns: n("end_ns")? as u64,
                parent: s.get("parent").and_then(Value::as_f64).map(|p| p as usize),
            });
        }
        Ok(RepOutput {
            error: v.get("error").and_then(Value::as_str).map(str::to_string),
            setup_s: f("setup_s")?,
            run_s: f("run_s")?,
            report_s: f("report_s")?,
            verify_s: f("verify_s")?,
            wall_s: f("wall_s")?,
            decisions: f("decisions")? as u64,
            peak_rss_mb: v.get("peak_rss_mb").and_then(Value::as_f64),
            virt: obj("virt")?,
            layer: obj("layer")?
                .into_iter()
                .filter_map(|(k, v)| Some((k, v.as_f64()?)))
                .collect(),
            slices,
            spans,
        })
    }
}

/// A virtual record as a JSON object (numbers with every digit).
pub fn virt_json(virt: &BTreeMap<String, Value>) -> String {
    virt.iter()
        .fold(Obj::new(), |o, (k, v)| match v {
            Value::Num(n) => o.raw(k, num(*n)),
            Value::Str(s) => o.str(k, s),
            Value::Bool(b) => o.raw(k, b.to_string()),
            _ => o.raw(k, "null"),
        })
        .build()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(fnv, bytes, lines)` of everything a [`DigestWriter`] was handed,
/// shared with whoever reads it after the sink is gone.
pub type Digest = Rc<Cell<(u64, u64, u64)>>;

/// A `Write` that keeps only an FNV-1a digest, a byte count and a line
/// count — the trace never touches memory or disk.
pub struct DigestWriter {
    state: Digest,
}

impl DigestWriter {
    /// A writer and the shared cell its counts land in.
    pub fn new() -> (DigestWriter, Digest) {
        let state = Rc::new(Cell::new((hash::fnv1a(b""), 0, 0)));
        (
            DigestWriter {
                state: Rc::clone(&state),
            },
            state,
        )
    }
}

impl Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let (mut h, bytes, mut lines) = self.state.get();
        for &b in buf {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            lines += (b == b'\n') as u64;
        }
        self.state.set((h, bytes + buf.len() as u64, lines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn volano(rooms: usize, messages: usize) -> VolanoConfig {
    VolanoConfig {
        rooms,
        users_per_room: 20,
        messages_per_user: messages,
        think_cycles: 60_000_000,
        ..VolanoConfig::default()
    }
}

/// The lab shape's machine (`Shape::Smp(n).machine()`), seeded.
fn smp(n: usize, seed: u64) -> MachineConfig {
    MachineConfig::smp(n)
        .with_max_secs(20_000.0)
        .with_seed(seed)
}

/// Lab metric fields plus exact extras, as a virtual record.
fn virt_of(metrics: &Metrics, extra: &[(&str, Value)]) -> BTreeMap<String, Value> {
    let mut virt: BTreeMap<String, Value> = metrics
        .fields()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::Num(v)))
        .collect();
    for (k, v) in extra {
        virt.insert(k.to_string(), v.clone());
    }
    virt
}

fn sched_layer(layer: &mut BTreeMap<String, f64>, m: &Metrics) {
    layer.insert("sched.calls".into(), m.sched_calls as f64);
    layer.insert(
        "sched.tasks_examined_per_call".into(),
        m.tasks_examined_per_schedule,
    );
    layer.insert("sched.recalc_entries".into(), m.recalc_entries as f64);
    layer.insert("sched.recalc_tasks".into(), m.recalc_tasks as f64);
}

fn oracle_verdict(report: &RunReport) -> Result<(), String> {
    if !report.conservation_ok {
        return Err("cycle-attribution conservation check failed".to_string());
    }
    match report.chaos.as_ref().and_then(|c| c.oracle.as_ref()) {
        Some(o) if !o.clean() => Err(format!(
            "oracle: {} unexplained divergence(s), {} invariant violation(s)",
            o.unexplained, o.invariant_violations
        )),
        _ => Ok(()),
    }
}

/// Builds the input repeatedly (see [`MIN_SETUPS`]), each build inside a
/// `setup` span (`setup.extra` for all but the last) and each dropped
/// before the next starts, so the peak resident set stays that of one.
/// Returns the last build and every build's seconds.
fn timed_setups<T>(
    rec: &mut Recorder,
    mut build: impl FnMut(&mut Recorder, usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::new();
    loop {
        let k = secs.len();
        let spent: f64 = secs.iter().sum();
        let last = (k + 1 >= MIN_SETUPS && spent >= SETUP_BUDGET_S) || k + 1 == MAX_SETUPS;
        let (built, s) = rec.time(if last { "setup" } else { "setup.extra" }, |rec| {
            build(rec, k)
        });
        secs.push(s);
        let built = built?;
        if last {
            return Ok((built, secs));
        }
    }
}

/// The four single-machine workloads.
struct MachineJob {
    cfg: MachineConfig,
    volano: VolanoConfig,
    sink: bool,
}

impl MachineJob {
    fn new(a: &RepArgs) -> MachineJob {
        let (cpus, rooms, messages) = match a.workload {
            Workload::MegaElsc100k => (2, 1250, 1),
            Workload::VolanoReg20r => (4, 20, 100),
            Workload::VolanoElscObserved => (2, 10, 20),
            Workload::PolicyTable10r => (2, 10, 100),
            Workload::Cluster4n | Workload::LabFigure4 => unreachable!("not a machine workload"),
        };
        let observed = a.workload == Workload::VolanoElscObserved;
        let cfg = smp(cpus, a.seed)
            // The lab `mega` cell carries the engine summary; so does this.
            .with_engine_metrics(a.workload == Workload::MegaElsc100k)
            .with_engine_slowdown(a.slowdown)
            .with_oracle(observed && matches!(a.variant, Variant::Default | Variant::OracleOnly));
        MachineJob {
            cfg,
            volano: volano(rooms, messages),
            sink: observed && matches!(a.variant, Variant::Default | Variant::TraceOnly),
        }
    }

    fn scheduler(&self, a: &RepArgs) -> Result<Box<dyn Scheduler>, String> {
        Ok(match (a.workload, a.variant) {
            (Workload::VolanoReg20r, _) => Box::new(LinuxScheduler::new()),
            (Workload::PolicyTable10r, Variant::Default) => Box::new(
                PolicyScheduler::load_str(TABLE_POL, self.cfg.nr_cpus())
                    .map_err(|e| format!("policies/table.pol: {e}"))?,
            ),
            _ => Box::new(ElscScheduler::new()),
        })
    }
}

fn run_machine(a: &RepArgs, rec: &mut Recorder, out: &mut RepOutput) -> Result<(), String> {
    let job = MachineJob::new(a);
    let ((mut m, digest), setups) = timed_setups(rec, |rec, _| {
        let (sched, _) = rec.time("sched.load", |_| job.scheduler(a));
        let sched = sched?;
        let (mut m, _) = rec.time("machine.new", |_| Machine::new(job.cfg.clone(), sched));
        let digest = job.sink.then(|| {
            let (w, state) = DigestWriter::new();
            m.add_sink(Box::new(JsonLinesSink::new(w)));
            state
        });
        rec.time("workloads.build", |_| {
            volanomark::build(&mut m, &job.volano)
        });
        Ok((m, digest))
    })?;
    out.setup_s = median(&setups);

    let (status, run_s) = rec.time("run", |rec| {
        m.start();
        match (a.traced, a.makespan) {
            (true, Some(makespan)) => {
                let mut status = StepStatus::Paused { idle: false };
                for i in 1..=SLICES {
                    let barrier = if i == SLICES {
                        u64::MAX
                    } else {
                        (makespan as u128 * i as u128 / SLICES as u128) as u64
                    };
                    let before = m.events_dispatched();
                    let (s, secs) = rec.time("machine.step", |_| m.step_until(Cycles(barrier)));
                    out.slices
                        .push((m.events_dispatched() - before, (secs * 1e9) as u64));
                    status = s.map_err(|e| e.to_string())?;
                }
                Ok(status)
            }
            _ => m.step_until(Cycles(u64::MAX)).map_err(|e| e.to_string()),
        }
    });
    out.run_s = run_s;
    if status? != StepStatus::Done {
        return Err("machine paused before every task exited".to_string());
    }

    let ((report, json), report_s) = rec.time("report", |rec| {
        let (report, _) = rec.time("machine.finish", |_| m.finish());
        let (json, _) = rec.time("report.to_json", |_| report.to_json());
        (report, json)
    });
    out.report_s = report_s;
    out.wall_s = setups[setups.len() - 1] + run_s + report_s;

    let (verdict, verify_s) = rec.time("verify", |_| {
        oracle_verdict(&report)?;
        let metrics = Metrics::from_report(&report, Some("messages"));
        let events = m.events_dispatched();
        let mut extra = vec![
            ("events_dispatched", Value::Num(events as f64)),
            ("elapsed_cycles", Value::Num(report.elapsed.get() as f64)),
        ];
        out.layer.insert("machine.events".into(), events as f64);
        out.layer
            .insert("machine.report_bytes".into(), json.len() as f64);
        out.layer
            .insert("netsim.msgs_read".into(), report.messages_read as f64);
        out.layer
            .insert("obs.trace_dropped".into(), report.trace_dropped as f64);
        sched_layer(&mut out.layer, &metrics);
        if let Some(p) = &report.policy {
            if p.ejected {
                return Err(format!("policy ejected: {:?}", p.eject_reason));
            }
            out.layer
                .insert("policy.insns_executed".into(), p.insns_executed as f64);
        }
        if let Some(state) = &digest {
            let (fnv, bytes, lines) = state.get();
            extra.push(("trace_fnv", Value::Str(format!("{fnv:016x}"))));
            extra.push(("trace_bytes", Value::Num(bytes as f64)));
            out.layer.insert("obs.trace_events".into(), lines as f64);
            out.layer.insert("obs.trace_bytes".into(), bytes as f64);
        }
        out.decisions = metrics.sched_calls;
        out.virt = virt_of(&metrics, &extra);
        Ok(())
    });
    out.verify_s = verify_s;
    if a.traced {
        // Inside the traced rep only: one more serialization the report
        // phase does not pay, kept as its own span.
        rec.time("obs.profile_json", |_| {
            std::hint::black_box(report.profile.to_json())
        });
    }
    verdict
}

/// Merges per-node reports the way the lab's cluster cell does: counters
/// sum, rates derive from the sums, elapsed is the makespan.
fn cluster_metrics(report: &ClusterReport) -> Metrics {
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
        ..Metrics::from_report(&report.nodes[0], Some("messages"))
    }
}

fn run_cluster(a: &RepArgs, rec: &mut Recorder, out: &mut RepOutput) -> Result<(), String> {
    let volano = volano(40, 40);
    let ccfg = ClusterConfig::new(
        4,
        DispatcherId::LeastLoaded,
        // Engine metrics only add the per-node event count to the report.
        smp(2, a.seed).with_engine_metrics(true),
    );
    let (cluster, setups) = timed_setups(rec, |rec, _| {
        let (mut c, _) = rec.time("cluster.new", |_| {
            Cluster::new(ccfg.clone(), |_| Box::new(ElscScheduler::new()))
        });
        rec.time("cluster.build_sharded", |_| {
            cluster_volano::build_sharded(&mut c, &volano)
        });
        Ok(c)
    })?;
    out.setup_s = median(&setups);

    let (report, run_s) = rec.time("run", |rec| rec.time("cluster.run", |_| cluster.run()).0);
    out.run_s = run_s;
    let report = report.map_err(|e| e.to_string())?;

    let (json, report_s) = rec.time("report", |rec| {
        rec.time("report.to_json", |_| report.to_json()).0
    });
    out.report_s = report_s;
    out.wall_s = setups[setups.len() - 1] + run_s + report_s;

    let (verdict, verify_s) = rec.time("verify", |_| {
        for node in &report.nodes {
            oracle_verdict(node)?;
        }
        let metrics = cluster_metrics(&report);
        let events: u64 = report
            .nodes
            .iter()
            .filter_map(|n| n.engine.as_ref())
            .map(|e| e.events_dispatched)
            .sum();
        let makespan = report.elapsed().get();
        let epochs = makespan.div_ceil(report.epoch_cycles);
        out.layer.insert("machine.events".into(), events as f64);
        out.layer
            .insert("machine.report_bytes".into(), json.len() as f64);
        out.layer.insert(
            "netsim.msgs_read".into(),
            report.nodes.iter().map(|n| n.messages_read).sum::<u64>() as f64,
        );
        out.layer.insert("cluster.epochs".into(), epochs as f64);
        out.layer
            .insert("cluster.fabric_msgs".into(), report.fabric_msgs() as f64);
        sched_layer(&mut out.layer, &metrics);
        out.decisions = metrics.sched_calls;
        out.virt = virt_of(
            &metrics,
            &[
                ("events_dispatched", Value::Num(events as f64)),
                ("elapsed_cycles", Value::Num(makespan as f64)),
                ("fabric_msgs", Value::Num(report.fabric_msgs() as f64)),
            ],
        );
        Ok(())
    });
    out.verify_s = verify_s;
    verdict
}

/// The `figure4` builtin's text with the seed made an argument (the
/// builtin pins `BASE_SEED` and reads `ELSC_*`; the harness generates).
pub fn figure4_spec(seed: u64) -> String {
    format!(
        "name = figure4\n\
         workload = volano\n\
         sched = elsc, reg\n\
         shape = UP, 1P, 2P, 4P\n\
         seed = {seed}\n\
         rooms = 5, 20\n messages = 20\n"
    )
}

/// A scratch directory under `<dir>/out`, unique to this process.
pub fn scratch_dir(dir: &Path, tag: &str) -> PathBuf {
    dir.join("out")
        .join(format!("tmp-{}-{tag}", std::process::id()))
}

fn run_lab(a: &RepArgs, rec: &mut Recorder, out: &mut RepOutput) -> Result<(), String> {
    let text = figure4_spec(a.seed);
    let mut dirs = Vec::new();
    let built = timed_setups(rec, |rec, k| {
        let dir = scratch_dir(&a.dir, &format!("cache{k}"));
        dirs.push(dir.clone());
        let (spec, _) = rec.time("lab.spec_parse", |_| text.parse::<SweepSpec>());
        let spec = spec?;
        let (cells, _) = rec.time("lab.spec_cells", |_| spec.cells());
        // The directory itself is made by the first `Cache::store`, as
        // for a user of `lab sweep --cache-dir`.
        Ok((spec, cells, Cache::new(dir)))
    });
    let result = built.and_then(|(built, setups)| run_lab_built(a, rec, out, built, &setups));
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    result
}

fn run_lab_built(
    a: &RepArgs,
    rec: &mut Recorder,
    out: &mut RepOutput,
    (spec, cells, cache): (SweepSpec, Vec<elsc_lab::CellConfig>, Cache),
    setups: &[f64],
) -> Result<(), String> {
    out.setup_s = median(setups);
    let opts = RunOptions {
        workers: LAB_WORKERS,
        force: false,
    };

    let (cold, run_s) = rec.time("run", |rec| {
        rec.time("lab.cold_sweep", |_| run_sweep(&spec, &cache, &opts))
            .0
    });
    out.run_s = run_s;

    let ((manifest, warm), report_s) = rec.time("report", |rec| {
        let (manifest, _) = rec.time("lab.manifest", |_| cold.manifest());
        let (warm, _) = rec.time("lab.warm_sweeps", |rec| {
            (0..WARM_SWEEPS)
                .map(|_| {
                    rec.time("lab.warm_sweep", |_| {
                        let run = run_sweep(&spec, &cache, &opts);
                        (run.executed, run.cached, run.manifest())
                    })
                })
                .collect::<Vec<_>>()
        });
        (manifest, warm)
    });
    out.report_s = report_s;
    out.wall_s = setups[setups.len() - 1] + run_s + report_s;

    let (verdict, verify_s) = rec.time("verify", |_| {
        if let Some((cell, e)) = cold.failures.first() {
            return Err(format!("cell {cell} failed: {e}"));
        }
        let manifest = manifest.ok_or("cold sweep produced no manifest")?;
        if cold.executed != cells.len() {
            return Err(format!(
                "cold sweep executed {} of {} cells",
                cold.executed,
                cells.len()
            ));
        }
        let mut hits = 0usize;
        for ((executed, cached, m), _) in &warm {
            if *executed != 0 || m.as_deref() != Some(manifest.as_str()) {
                return Err("a warm sweep re-executed cells or moved the manifest".to_string());
            }
            hits += cached;
        }
        let warm_ms: Vec<f64> = warm.iter().map(|(_, secs)| secs * 1e3).collect();
        out.decisions = cold.outcomes.iter().map(|o| o.metrics.sched_calls).sum();
        let recalc = |f: fn(&Metrics) -> u64| -> f64 {
            cold.outcomes.iter().map(|o| f(&o.metrics)).sum::<u64>() as f64
        };
        out.layer.insert("sched.calls".into(), out.decisions as f64);
        out.layer
            .insert("sched.recalc_entries".into(), recalc(|m| m.recalc_entries));
        out.layer
            .insert("sched.recalc_tasks".into(), recalc(|m| m.recalc_tasks));
        out.layer.insert(
            "sched.tasks_examined_per_call".into(),
            cold.outcomes
                .iter()
                .map(|o| o.metrics.tasks_examined_per_schedule * o.metrics.sched_calls as f64)
                .sum::<f64>()
                / out.decisions.max(1) as f64,
        );
        out.layer
            .insert("lab.manifest_bytes".into(), manifest.len() as f64);
        out.layer.insert(
            "lab.cache_hit_ratio".into(),
            hits as f64 / (WARM_SWEEPS * cells.len()) as f64,
        );
        out.layer
            .insert("lab.warm_sweep_ms".into(), median(&warm_ms));
        out.virt = BTreeMap::from([
            ("cells".to_string(), Value::Num(cells.len() as f64)),
            ("sched_calls".to_string(), Value::Num(out.decisions as f64)),
            (
                "manifest_fnv".to_string(),
                Value::Str(hash::digest(&manifest)),
            ),
            (
                "manifest_bytes".to_string(),
                Value::Num(manifest.len() as f64),
            ),
            ("cold_eq_warm".to_string(), Value::Bool(true)),
        ]);
        Ok(())
    });
    out.verify_s = verify_s;
    verdict?;

    if a.traced {
        // The same cells once more, one after the other on this thread:
        // serial ÷ (workers × cold) is what the pool made of two cores.
        let ((), serial_s) = rec.time("lab.cells_serial", |rec| {
            for cell in &cells {
                let _ = rec.time("lab.execute_cell", |_| execute_cell(cell));
            }
        });
        out.layer.insert(
            "lab.pool_efficiency".into(),
            serial_s / (LAB_WORKERS as f64 * run_s),
        );
    }
    Ok(())
}

/// Runs one rep in this process.
pub fn run_rep(a: &RepArgs) -> RepOutput {
    let mut rec = Recorder::new();
    let mut out = RepOutput::default();
    let start = Instant::now();
    let root = rec.enter("workload");
    let result = match a.workload {
        Workload::Cluster4n => run_cluster(a, &mut rec, &mut out),
        Workload::LabFigure4 => run_lab(a, &mut rec, &mut out),
        _ => run_machine(a, &mut rec, &mut out),
    };
    rec.exit(root);
    out.error = result.err();
    if out.wall_s == 0.0 {
        out.wall_s = start.elapsed().as_secs_f64();
    }
    out.peak_rss_mb = peak_rss_mb();
    if a.traced {
        out.spans = rec.spans().to_vec();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elsc_env_is_clean() -> bool {
        !std::env::vars_os().any(|(k, _)| k.to_string_lossy().starts_with("ELSC_"))
    }

    #[test]
    fn rep_output_round_trips_through_jsonv() {
        let out = RepOutput {
            error: Some("oracle: 1 \"unexplained\"\ndivergence".to_string()),
            setup_s: 0.057_728_843_5,
            run_s: 1.188_829_721,
            report_s: 8.971_253e-3,
            verify_s: 4.6073e-5,
            wall_s: 1.253_100_246,
            decisions: 2_436_733,
            peak_rss_mb: Some(89.378_906_25),
            virt: BTreeMap::from([
                (
                    "cycles_per_schedule".to_string(),
                    Value::Num(649_041.578_334_598),
                ),
                (
                    "trace_fnv".to_string(),
                    Value::Str("10b73608fedd7f4e".to_string()),
                ),
                ("cold_eq_warm".to_string(), Value::Bool(true)),
            ]),
            layer: BTreeMap::from([("machine.events".to_string(), 2_480_036.0)]),
            slices: vec![(10, 12_345), (0, 7)],
            spans: vec![
                Span {
                    name: "workload".to_string(),
                    start_ns: 0,
                    end_ns: 99,
                    parent: None,
                },
                Span {
                    name: "setup".to_string(),
                    start_ns: 1,
                    end_ns: 5,
                    parent: Some(0),
                },
            ],
        };
        let line = out.to_json();
        assert!(!line.contains('\n'), "one line");
        assert_eq!(RepOutput::from_json(&line).unwrap(), out);
        // No RSS (no /proc): null, not a number.
        let none = RepOutput {
            peak_rss_mb: None,
            error: None,
            ..out
        };
        let back = RepOutput::from_json(&none.to_json()).unwrap();
        assert!(back.ok() && back.peak_rss_mb.is_none());
        assert!(RepOutput::from_json("{}").is_err());
    }

    #[test]
    fn generated_specs_are_the_builtins_at_the_default_seed() {
        if !elsc_env_is_clean() {
            return; // the builtins read ELSC_*; the generated text never does
        }
        let seed = crate::workloads::DEFAULT_SEED;
        assert_eq!(
            figure4_spec(seed).parse::<SweepSpec>().unwrap(),
            SweepSpec::builtin("figure4").unwrap()
        );
        assert_eq!(
            crate::probes::smoke_spec(seed)
                .parse::<SweepSpec>()
                .unwrap(),
            SweepSpec::builtin("smoke").unwrap()
        );
        assert_eq!(
            figure4_spec(7).parse::<SweepSpec>().unwrap().cells().len(),
            16
        );
    }

    #[test]
    fn digest_writer_counts_and_hashes() {
        let (mut w, state) = DigestWriter::new();
        w.write_all(b"{\"a\":1}\n").unwrap();
        w.write_all(b"{\"b\":2}\n").unwrap();
        let (fnv, bytes, lines) = state.get();
        assert_eq!((bytes, lines), (16, 2));
        assert_eq!(fnv, hash::fnv1a(b"{\"a\":1}\n{\"b\":2}\n"));
    }

    /// A tiny end-to-end rep of the machine path, traced: the spans nest
    /// as documented and the slices cover every event.
    #[test]
    fn traced_rep_records_the_documented_spans() {
        let args = RepArgs {
            workload: Workload::VolanoElscObserved,
            seed: 3,
            traced: false,
            makespan: None,
            slowdown: 1,
            variant: Variant::Plain,
            dir: std::env::temp_dir(),
        };
        let plain = run_rep(&args);
        assert!(plain.ok(), "{:?}", plain.error);
        let makespan = plain.virt["elapsed_cycles"].as_f64().unwrap() as u64;
        let traced = run_rep(&RepArgs {
            traced: true,
            makespan: Some(makespan),
            ..args
        });
        assert!(traced.ok(), "{:?}", traced.error);
        assert_eq!(
            traced.virt, plain.virt,
            "stepping in slices changes nothing virtual"
        );
        assert_eq!(traced.slices.len() as u64, SLICES);
        let events: u64 = traced.slices.iter().map(|(e, _)| e).sum();
        assert_eq!(events as f64, traced.layer["machine.events"]);
        let parent_of = |name: &str| {
            let s = traced.spans.iter().find(|s| s.name == name).unwrap();
            s.parent.map(|p| traced.spans[p].name.as_str())
        };
        assert_eq!(parent_of("workload"), None);
        for phase in ["setup", "run", "report", "verify"] {
            assert_eq!(parent_of(phase), Some("workload"));
        }
        assert_eq!(parent_of("machine.new"), Some("setup.extra"));
        assert_eq!(parent_of("machine.step"), Some("run"));
        assert_eq!(parent_of("report.to_json"), Some("report"));
    }
}
