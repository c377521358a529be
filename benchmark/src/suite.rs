//! The parent side: spawn reps as child processes, verify each, reduce
//! to medians, run the traced pass, print.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use elsc_lab::jsonv::Value;
use elsc_obs::json::{num, Obj};

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probes;
use crate::rep::{virt_json, RepArgs, RepOutput, LAB_WORKERS};
use crate::spans::{self, Recorder, Span};
use crate::stats::{highest_percentile, median, percentile};
use crate::workloads::{Variant, Workload, DEFAULT_SEED};
use crate::Cli;

/// `(metric name, value)` pairs in table order.
type Values = Vec<(&'static str, f64)>;

/// A virtual record: name → exact value.
type Virt = BTreeMap<String, Value>;

/// Removes every `ELSC_*` variable from a child's environment: they all
/// change builtin specs or inject slowdowns (`ELSC_MESSAGES`,
/// `ELSC_ITERATIONS`, `ELSC_MEGA_ROOMS`, `ELSC_ENGINE_SLOWDOWN`).
pub fn scrub_env<'a>(cmd: &mut Command, vars: impl Iterator<Item = &'a str>) {
    for k in vars.filter(|k| k.starts_with("ELSC_")) {
        cmd.env_remove(k);
    }
}

/// The untraced, default-variant rep of `workload` at the run's seed.
fn plain(cli: &Cli, workload: Workload) -> RepArgs {
    RepArgs {
        workload,
        seed: cli.seed,
        traced: false,
        makespan: None,
        slowdown: 1,
        variant: Variant::Default,
        dir: cli.dir.clone(),
    }
}

/// Runs one rep as a fresh child process of this binary and waits for
/// it. Anything that goes wrong becomes the rep's `error`.
fn spawn_rep(ask: &RepArgs) -> RepOutput {
    let run = || -> Result<RepOutput, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--child")
            .arg(ask.workload.name())
            .arg("--seed")
            .arg(ask.seed.to_string())
            .arg("--variant")
            .arg(ask.variant.name())
            .arg("--slowdown")
            .arg(ask.slowdown.to_string())
            .arg("--dir")
            .arg(&ask.dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if ask.traced {
            cmd.arg("--traced");
        }
        if let Some(m) = ask.makespan {
            cmd.arg("--makespan").arg(m.to_string());
        }
        let keys: Vec<String> = std::env::vars_os()
            .filter_map(|(k, _)| k.into_string().ok())
            .collect();
        scrub_env(&mut cmd, keys.iter().map(String::as_str));
        let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
        if !output.status.success() {
            return Err(format!("child exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().ok_or("child printed nothing")?;
        RepOutput::from_json(line)
    };
    run().unwrap_or_else(|e| RepOutput {
        error: Some(e),
        ..RepOutput::default()
    })
}

/// Spawn + wait of a child that exits at once, ms (median of 10).
fn child_spawn_ms() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let status = Command::new(&exe)
            .arg("--noop")
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("spawn: {e}"))?;
        if !status.success() {
            return Err(format!("noop child exited with {status}"));
        }
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&samples))
}

/// The pinned virtual records of `expected.json`, by workload name.
fn load_expected(dir: &Path) -> Result<BTreeMap<String, Virt>, String> {
    let path = dir.join("expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (generate it with run.sh --write-expected)",
            path.display()
        )
    })?;
    let v = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("seed").and_then(Value::as_f64) != Some(DEFAULT_SEED as f64) {
        return Err(format!(
            "{}: not pinned at the default seed",
            path.display()
        ));
    }
    match v.get("workloads") {
        Some(Value::Obj(m)) => Ok(m
            .iter()
            .filter_map(|(k, v)| match v {
                Value::Obj(rec) => Some((k.clone(), rec.clone())),
                _ => None,
            })
            .collect()),
        _ => Err(format!("{}: no 'workloads' object", path.display())),
    }
}

fn first_difference(a: &Virt, b: &Virt) -> String {
    a.keys()
        .chain(b.keys())
        .find(|k| a.get(*k) != b.get(*k))
        .map_or("records differ".to_string(), |k| {
            format!("'{k}': {:?} vs {:?}", a.get(k), b.get(k))
        })
}

/// Reps of one workload, each verified as it arrives.
pub struct Run {
    workload: Workload,
    expected: Option<Virt>,
    reps: Vec<RepOutput>,
    failures: Vec<String>,
}

impl Run {
    /// `expected` is the pinned record to hold every rep to (default
    /// seed only); other seeds check rep-to-rep identity alone.
    fn new(workload: Workload, expected: Option<Virt>) -> Run {
        Run {
            workload,
            expected,
            reps: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// A rep fails if it errored (run error, conservation, unclean
    /// oracle), if its virtual record differs from another rep's, or from
    /// the pinned one.
    fn push(&mut self, rep: RepOutput) {
        let verdict = match &rep.error {
            Some(e) => Err(e.clone()),
            None => {
                let reference = self
                    .expected
                    .as_ref()
                    .map(|e| ("expected.json", e))
                    .or_else(|| self.good().next().map(|r| ("an earlier rep", &r.virt)));
                match reference {
                    Some((what, r)) if *r != rep.virt => Err(format!(
                        "virtual record differs from {what}: {}",
                        first_difference(r, &rep.virt)
                    )),
                    _ => Ok(()),
                }
            }
        };
        if let Err(e) = verdict {
            eprintln!(
                "{}: rep {} failed: {e}",
                self.workload.name(),
                self.reps.len()
            );
            self.failures.push(e);
            // A failed rep's numbers are not measurements.
            self.reps.push(RepOutput {
                error: Some("failed".to_string()),
                ..rep
            });
        } else {
            self.reps.push(rep);
        }
    }

    fn good(&self) -> impl Iterator<Item = &RepOutput> {
        self.reps.iter().filter(|r| r.ok())
    }

    fn median_of(&self, f: impl Fn(&RepOutput) -> Option<f64>) -> f64 {
        median(&self.good().filter_map(f).collect::<Vec<_>>())
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. `wall_s` is
    /// scaled to the workload's nominal decision count (a factor of
    /// exactly 1 at the default seed).
    fn end_to_end(&self) -> Values {
        let nominal = self.workload.nominal_decisions() as f64;
        vec![
            (
                "wall_s",
                self.median_of(|r| Some(r.wall_s * nominal / r.decisions as f64)),
            ),
            (
                "decisions_per_s",
                self.median_of(|r| Some(r.decisions as f64 / r.run_s)),
            ),
            ("setup_s", self.median_of(|r| Some(r.setup_s))),
            ("peak_rss_mb", self.median_of(|r| r.peak_rss_mb)),
        ]
    }

    fn makespan(&self) -> Option<u64> {
        self.good()
            .next()
            .and_then(|r| r.virt.get("elapsed_cycles"))
            .and_then(Value::as_f64)
            .map(|c| c as u64)
    }
}

fn expected_for(cli: &Cli, w: Workload) -> Result<Option<Virt>, String> {
    if cli.seed != DEFAULT_SEED || cli.write_expected {
        return Ok(None);
    }
    load_expected(&cli.dir)?
        .remove(w.name())
        .map(Some)
        .ok_or_else(|| format!("expected.json has no record for {}", w.name()))
}

fn unit_of(table: &[Metric], name: &str) -> &'static str {
    table.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

fn print_values(table: &[Metric], values: &[(&'static str, f64)], n: usize) {
    for (name, v) in values {
        println!("  {name:<34} {v:>16.6} {:<6} n={n}", unit_of(table, name));
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(
    table: &[Metric],
    values: &[(&'static str, f64)],
    attempted: usize,
    failed: usize,
) -> String {
    let metrics = values.iter().fold(Obj::new(), |o, (name, v)| {
        o.raw(
            name,
            Obj::new()
                .raw("value", num(*v))
                .str("unit", unit_of(table, name))
                .build(),
        )
    });
    Obj::new()
        .raw("correct", (failed == 0 && attempted > 0).to_string())
        .u64("attempted", attempted as u64)
        .u64("failed", failed as u64)
        .raw("metrics", metrics.build())
        .build()
}

/// What a traced pass produced.
struct Traced {
    /// Every [`PER_LAYER`] metric.
    layer: Values,
    /// [`crate::metrics::REPORT_ONLY`] numbers this workload has.
    extra: Values,
    attempted: usize,
    failures: Vec<String>,
}

/// Total ms of the spans named in `names` that sit directly under a span
/// named `parent` (the last set-up is `setup`; its rehearsals are not).
fn span_ms(spans: &[Span], parent: &str, names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == parent))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// ns per `schedule()` at queue length `n`, on the line through the two
/// probed lengths.
fn probe_at(n: f64, n64: f64, n1k: f64) -> f64 {
    (n64 + (n1k - n64) * (n - 64.0) / (1000.0 - 64.0)).max(0.0)
}

/// The traced pass of one workload: untraced/traced rep pairs (until
/// `budget_s` is half spent; one pair without a budget), the twins, the
/// probes; writes `out/trace-<workload>.json`.
///
/// `baseline` are untraced reps already measured (suite mode), which
/// then stand in for the pass's own untraced reps; `probed` likewise.
fn traced_pass(
    cli: &Cli,
    w: Workload,
    baseline: Option<&Run>,
    probed: Option<&Values>,
    budget_s: Option<f64>,
) -> Result<Traced, String> {
    let start = Instant::now();
    let mut rec = Recorder::new();
    let root = rec.enter("traced-pass");
    let mut untraced = Run::new(w, expected_for(cli, w)?);
    let mut traced = Run::new(w, untraced.expected.clone());
    loop {
        if baseline.is_none() {
            let id = rec.enter("rep.untraced");
            untraced.push(spawn_rep(&plain(cli, w)));
            rec.exit(id);
        }
        let makespan = baseline.unwrap_or(&untraced).makespan();
        if w.is_machine() && makespan.is_none() {
            // No good untraced rep: nothing to size the slices with.
            break;
        }
        let id = rec.enter("rep.traced");
        let offset = rec.offset_ns();
        let rep = spawn_rep(&RepArgs {
            traced: true,
            makespan,
            ..plain(cli, w)
        });
        rec.graft(&rep.spans, offset);
        rec.exit(id);
        traced.push(rep);
        match budget_s {
            Some(b) if start.elapsed().as_secs_f64() < b * 0.5 => {}
            _ => break,
        }
    }
    let base = baseline.unwrap_or(&untraced);

    let mut twins: BTreeMap<Variant, RepOutput> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    for &variant in w.twins() {
        let id = rec.enter(format!("twin.{}", variant.name()));
        let rep = spawn_rep(&RepArgs {
            variant,
            ..plain(cli, w)
        });
        rec.exit(id);
        // Observation must not perturb the run: an observed twin's
        // virtual record agrees with the workload's on every shared key
        // (the trace itself differs: the oracle writes into it).
        let perturbed = variant.same_schedule()
            && base.good().next().is_some_and(|b| {
                rep.virt
                    .iter()
                    .filter(|(k, _)| !k.starts_with("trace_"))
                    .any(|(k, v)| b.virt.get(k).is_some_and(|bv| bv != v))
            });
        if let Some(e) = &rep.error {
            failures.push(format!("twin {}: {e}", variant.name()));
        } else if perturbed {
            failures.push(format!(
                "twin {}: observers perturbed the run",
                variant.name()
            ));
        }
        twins.insert(variant, rep);
    }

    let own_probes;
    let probed = match probed {
        Some(p) => p,
        None => {
            let mut p = probes::run_all(cli.seed, &cli.dir, &mut rec)?;
            let id = rec.enter("probe.harness.child_spawn");
            p.push(("harness.child_spawn_ms", child_spawn_ms()?));
            rec.exit(id);
            own_probes = p;
            &own_probes
        }
    };
    rec.exit(root);

    let attempted = untraced.reps.len() + traced.reps.len() + twins.len();
    for f in &failures {
        eprintln!("{}: {f}", w.name());
    }
    failures.extend(untraced.failures.iter().cloned());
    failures.extend(traced.failures.iter().cloned());

    let out_dir = cli.dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, spans::to_json(w.name(), rec.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let (layer, extra) = layer_metrics(w, base, &traced, &twins, probed);
    let value = |name: &str| {
        layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    if traced.good().next().is_none() {
        failures.push("no traced rep completed".to_string());
    } else {
        if value("obs.trace_dropped") != 0.0 {
            failures.push("trace records were dropped".to_string());
        }
        if w == Workload::LabFigure4 && value("lab.cache_hit_ratio") != 1.0 {
            failures.push("warm sweeps missed the cache".to_string());
        }
    }
    Ok(Traced {
        layer,
        extra,
        attempted,
        failures,
    })
}

/// Reduces a traced pass to the [`PER_LAYER`] metrics (every one of them,
/// 0 where the workload never enters the layer) and the
/// [`crate::metrics::REPORT_ONLY`] numbers this workload has.
fn layer_metrics(
    w: Workload,
    base: &Run,
    traced: &Run,
    twins: &BTreeMap<Variant, RepOutput>,
    probed: &Values,
) -> (Values, Values) {
    let mut v: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut extra: Values = Vec::new();
    v.extend(probed.iter().copied());
    let probe = |name: &str| {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, x)| *x)
    };

    if let Some(t) = traced.good().last() {
        let run_s = traced.median_of(|r| Some(r.run_s));
        let count = |name: &str| t.layer.get(name).copied().unwrap_or(0.0);
        v.extend(
            PER_LAYER
                .iter()
                .filter_map(|m| Some((m.name, *t.layer.get(m.name)?))),
        );
        v.insert("phase.setup_ms", span_ms(&t.spans, "workload", &["setup"]));
        v.insert("phase.run_s", run_s);
        v.insert(
            "phase.report_ms",
            traced.median_of(|r| Some(r.report_s)) * 1e3,
        );
        v.insert(
            "phase.verify_ms",
            traced.median_of(|r| Some(r.verify_s)) * 1e3,
        );
        v.insert(
            "run.ns_per_decision",
            run_s * 1e9 / t.decisions.max(1) as f64,
        );
        v.insert(
            "harness.trace_overhead_pct",
            (traced.median_of(|r| Some(r.wall_s)) / base.median_of(|r| Some(r.wall_s)) - 1.0)
                * 100.0,
        );

        // The scheduler's estimated share of host run time: exact call
        // count × the probe's ns/schedule at the observed queue length.
        let examined = count("sched.tasks_examined_per_call");
        let per_call = match w {
            Workload::VolanoReg20r => probe_at(
                examined,
                probe("sched-linux.schedule_ns_n64"),
                probe("sched-linux.schedule_ns_n1k"),
            ),
            Workload::PolicyTable10r => probe("policy.schedule_ns_n64"),
            Workload::LabFigure4 => 0.0,
            _ => probe_at(
                examined,
                probe("core.schedule_ns_n64"),
                probe("core.schedule_ns_n1k"),
            ),
        };
        v.insert(
            "sched.host_share_est",
            count("sched.calls") * per_call / (run_s * 1e9),
        );

        let per_event: Vec<f64> = t
            .slices
            .iter()
            .filter(|(events, _)| *events > 0)
            .map(|(events, ns)| *ns as f64 / *events as f64)
            .collect();
        if let Some(hi) = highest_percentile(per_event.len()) {
            let (p50, top) = (percentile(&per_event, 50.0), percentile(&per_event, hi));
            v.insert("machine.step_p95_over_p50", top / p50);
            extra.push(("machine.ns_per_event_p50", p50));
            extra.push(("machine.ns_per_event_p95", top));
        }
        let ms = |parent: &str, names: &[&str]| span_ms(&t.spans, parent, names);
        if w.is_machine() {
            extra.extend([
                (
                    "machine.new_build_ms",
                    ms("setup", &["machine.new", "workloads.build"]),
                ),
                ("machine.run_s", run_s),
                (
                    "machine.ns_per_event",
                    run_s * 1e9 / count("machine.events").max(1.0),
                ),
                ("machine.finish_ms", ms("report", &["machine.finish"])),
                (
                    "machine.report_json_us",
                    ms("report", &["report.to_json"]) * 1e3,
                ),
                (
                    "obs.profile_json_us",
                    ms("workload", &["obs.profile_json"]) * 1e3,
                ),
            ]);
        }
        if w == Workload::Cluster4n {
            extra.extend([
                (
                    "cluster.build_ms",
                    ms("setup", &["cluster.new", "cluster.build_sharded"]),
                ),
                (
                    "cluster.us_per_epoch",
                    run_s * 1e6 / count("cluster.epochs").max(1.0),
                ),
            ]);
        }
        if w == Workload::LabFigure4 {
            extra.extend([
                (
                    "lab.spec_cells_us",
                    ms("setup", &["lab.spec_parse", "lab.spec_cells"]) * 1e3,
                ),
                ("lab.cold_sweep_s", run_s),
                ("lab.warm_sweep_ms", count("lab.warm_sweep_ms")),
            ]);
        }
    }

    // Twin runs price one observer or backend each; bases are stated in
    // the metric definitions.
    let twin_run = |v: Variant| twins.get(&v).filter(|r| r.ok()).map(|r| r.run_s);
    if let Some(native) = twin_run(Variant::Native) {
        v.insert(
            "policy.overhead_ratio",
            base.median_of(|r| Some(r.run_s)) / native,
        );
    }
    if let (Some(plain), Some(oracle), Some(trace)) = (
        twin_run(Variant::Plain),
        twin_run(Variant::OracleOnly),
        twin_run(Variant::TraceOnly),
    ) {
        v.insert("chaos.oracle_overhead_ratio", oracle / plain);
        v.insert("obs.trace_overhead_ratio", trace / plain);
    }
    (
        PER_LAYER.iter().map(|m| (m.name, v[m.name])).collect(),
        extra,
    )
}

fn print_host() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: {cores} core(s) available; lab pool fixed at {LAB_WORKERS} workers; reps are fresh child processes, ELSC_* scrubbed"
    );
}

/// Driver mode: one workload, `--seconds` of reps, one result line.
pub fn driver(cli: &Cli, w: Workload) -> Result<(), String> {
    print_host();
    if cli.trace {
        let t = traced_pass(cli, w, None, None, Some(cli.seconds))?;
        println!("== {} traced pass (seed {}) ==", w.name(), cli.seed);
        print_values(&PER_LAYER, &t.layer, 1);
        print_values(&crate::metrics::REPORT_ONLY, &t.extra, 1);
        println!(
            "{}",
            result_line(&PER_LAYER, &t.layer, t.attempted, t.failures.len())
        );
        return Ok(());
    }
    let start = Instant::now();
    let mut run = Run::new(w, expected_for(cli, w)?);
    loop {
        let t = Instant::now();
        run.push(spawn_rep(&plain(cli, w)));
        // Stop when the next rep would end further past the deadline
        // than this one ended before it.
        let rep_s = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + rep_s / 2.0 >= cli.seconds {
            break;
        }
    }
    if run.good().next().is_none() {
        return Err(format!(
            "{}: no rep completed: {}",
            w.name(),
            run.failures.join("; ")
        ));
    }
    let values = run.end_to_end();
    println!(
        "== {} (seed {}, {} reps in {:.1} s, {} failed) ==",
        w.name(),
        cli.seed,
        run.reps.len(),
        start.elapsed().as_secs_f64(),
        run.failures.len()
    );
    print_values(&END_TO_END, &values, run.good().count());
    println!(
        "{}",
        result_line(&END_TO_END, &values, run.reps.len(), run.failures.len())
    );
    Ok(())
}

/// One full set: `--reps` reps of every workload, interleaved
/// round-robin so host drift spreads evenly.
fn measure_all(cli: &Cli) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for w in Workload::ALL {
        runs.push(Run::new(w, expected_for(cli, w)?));
    }
    for _ in 0..cli.reps {
        for run in &mut runs {
            let w = run.workload;
            run.push(spawn_rep(&plain(cli, w)));
        }
    }
    Ok(runs)
}

fn print_runs(runs: &[Run]) {
    for run in runs {
        println!(
            "== {} ({} reps, {} failed) ==",
            run.workload.name(),
            run.reps.len(),
            run.failures.len()
        );
        print_values(&END_TO_END, &run.end_to_end(), run.good().count());
        println!(
            "  {:<34} {:>16.6} {:<6} n={}",
            "failed_share",
            run.failures.len() as f64 / run.reps.len().max(1) as f64,
            "ratio",
            run.reps.len()
        );
    }
}

/// Suite mode: every workload, every metric; `--trace` adds the traced
/// pass. Fails if any rep failed.
pub fn full(cli: &Cli) -> Result<Vec<Run>, String> {
    print_host();
    println!("seed {}, {} reps per workload", cli.seed, cli.reps);
    let runs = measure_all(cli)?;
    print_runs(&runs);
    let mut failed: usize = runs.iter().map(|r| r.failures.len()).sum();
    if cli.trace {
        let mut rec = Recorder::new();
        let mut probed = probes::run_all(cli.seed, &cli.dir, &mut rec)?;
        probed.push(("harness.child_spawn_ms", child_spawn_ms()?));
        for run in &runs {
            let t = traced_pass(cli, run.workload, Some(run), Some(&probed), None)?;
            println!("== {} traced pass ==", run.workload.name());
            print_values(&PER_LAYER, &t.layer, 1);
            print_values(&crate::metrics::REPORT_ONLY, &t.extra, 1);
            for f in &t.failures {
                eprintln!("{}: traced pass: {f}", run.workload.name());
            }
            failed += t.failures.len();
        }
        println!(
            "span files: {}/out/trace-<workload>.json",
            cli.dir.display()
        );
    }
    if failed > 0 {
        return Err(format!("{failed} rep(s) failed"));
    }
    Ok(runs)
}

/// `--write-expected`: pins the virtual records at the default seed.
pub fn write_expected(cli: &Cli) -> Result<(), String> {
    if cli.seed != DEFAULT_SEED {
        return Err("expected.json is pinned at the default seed; drop --seed".to_string());
    }
    let runs = measure_all(&Cli {
        reps: 2,
        ..cli.clone()
    })?;
    let mut lines = Vec::new();
    for run in &runs {
        if !run.failures.is_empty() || run.good().count() < 2 {
            return Err(format!(
                "{}: {}",
                run.workload.name(),
                run.failures.join("; ")
            ));
        }
        let virt = &run.good().next().expect("two good reps").virt;
        lines.push(format!(
            "  \"{}\": {}",
            run.workload.name(),
            virt_json(virt)
        ));
    }
    // One workload per line: a moved record is a one-line diff.
    let text = format!(
        "{{\"seed\": {DEFAULT_SEED},\n \"workloads\": {{\n{}\n }}}}\n",
        lines.join(",\n")
    );
    Value::parse(&text).map_err(|e| format!("expected.json would not parse: {e}"))?;
    let path = cli.dir.join("expected.json");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `--selftest-slowdown`: a 3× per-dispatch busy loop must at least halve
/// `decisions_per_s` on `mega-elsc-100k` and leave its virtual record
/// alone — what the virtual `sim_events_per_sec` cannot see.
pub fn selftest_slowdown(cli: &Cli) -> Result<(), String> {
    let w = Workload::MegaElsc100k;
    let mut clean = Run::new(w, expected_for(cli, w)?);
    let mut slowed = Run::new(w, clean.expected.clone());
    for _ in 0..2 {
        clean.push(spawn_rep(&plain(cli, w)));
        slowed.push(spawn_rep(&RepArgs {
            slowdown: 3,
            ..plain(cli, w)
        }));
    }
    let failures: Vec<_> = clean.failures.iter().chain(&slowed.failures).collect();
    if !failures.is_empty() {
        return Err(format!("selftest reps failed: {failures:?}"));
    }
    if clean.reps[0].virt != slowed.reps[0].virt {
        return Err("the slowdown moved the virtual record".to_string());
    }
    let rate = |r: &Run| r.median_of(|r| Some(r.decisions as f64 / r.run_s));
    let (fast, slow) = (rate(&clean), rate(&slowed));
    println!(
        "decisions_per_s@{}: {fast:.0} clean, {slow:.0} with engine_slowdown(3): {:.2}x lower (base: slowed); virtual record unchanged",
        w.name(),
        fast / slow
    );
    if fast / slow < 2.0 {
        return Err(
            "an injected 3x dispatch slowdown moved decisions_per_s by less than 2x".to_string(),
        );
    }
    println!("selftest-slowdown: pass");
    Ok(())
}

/// `--check-repeat`: two full sets of the same code back to back must
/// agree within each end-to-end metric's bound.
pub fn check_repeat(cli: &Cli) -> Result<(), String> {
    let first = full(&Cli {
        trace: false,
        ..cli.clone()
    })?;
    let second = full(&Cli {
        trace: false,
        ..cli.clone()
    })?;
    let mut over = 0;
    println!("== repeatability: second set against first ==");
    for (a, b) in first.iter().zip(&second) {
        for ((m, (_, x)), (_, y)) in END_TO_END.iter().zip(a.end_to_end()).zip(b.end_to_end()) {
            // setup_s: the larger of its bound and 5 ms, below which the
            // timer and the page cache decide, not the code.
            let bound = if m.name == "setup_s" {
                m.bound.max(0.005 / x)
            } else {
                m.bound
            };
            let gap = (y - x) / x;
            let flag = if gap.abs() > bound {
                over += 1;
                "OVER"
            } else {
                "ok"
            };
            println!(
                "  {:<22} {:<16} {x:>14.6} {y:>14.6} {:>+7.2}% (bound {:.0}%) {flag}",
                a.workload.name(),
                m.name,
                gap * 100.0,
                bound * 100.0
            );
        }
    }
    if over > 0 {
        return Err(format!("{over} end-to-end metric(s) moved by more than their bound between two sets of the same code"));
    }
    println!("check-repeat: pass");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elsc_variables_are_scrubbed_and_nothing_else() {
        let mut cmd = Command::new("true");
        cmd.env("ELSC_MESSAGES", "100").env("KEEP_ME", "1");
        let vars = [
            "ELSC_MESSAGES",
            "ELSC_ENGINE_SLOWDOWN",
            "PATH",
            "NOT_ELSC_X",
        ];
        scrub_env(&mut cmd, vars.into_iter());
        let envs: BTreeMap<String, Option<String>> = cmd
            .get_envs()
            .map(|(k, v)| {
                (
                    k.to_string_lossy().into_owned(),
                    v.map(|v| v.to_string_lossy().into_owned()),
                )
            })
            .collect();
        // Removed (explicitly unset for the child), even when set on the command.
        assert_eq!(envs.get("ELSC_MESSAGES"), Some(&None));
        assert_eq!(envs.get("ELSC_ENGINE_SLOWDOWN"), Some(&None));
        assert_eq!(envs.get("KEEP_ME"), Some(&Some("1".to_string())));
        assert!(!envs.contains_key("PATH") && !envs.contains_key("NOT_ELSC_X"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_parses() {
        let values = vec![("wall_s", 1.2351253965), ("setup_s", 0.0577288435)];
        let line = result_line(&END_TO_END, &values, 4, 0);
        let v = Value::parse(&line).unwrap();
        let Value::Obj(top) = &v else { panic!() };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(
            wall.get("value").and_then(Value::as_f64),
            Some(1.2351253965)
        );
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        let failed = Value::parse(&result_line(&END_TO_END, &values, 4, 1)).unwrap();
        assert_eq!(failed.get("correct").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn a_rep_fails_on_error_or_a_moved_virtual_record() {
        let rep = |x: f64| RepOutput {
            virt: BTreeMap::from([("sched_calls".to_string(), Value::Num(x))]),
            run_s: 1.0,
            decisions: 10,
            ..RepOutput::default()
        };
        let mut run = Run::new(Workload::Cluster4n, None);
        run.push(rep(5.0));
        run.push(rep(5.0));
        run.push(rep(6.0)); // differs from an earlier rep
        run.push(RepOutput {
            error: Some("watchdog".to_string()),
            ..rep(5.0)
        });
        assert_eq!(
            (run.reps.len(), run.failures.len(), run.good().count()),
            (4, 2, 2)
        );
        // Pinned: even the first rep is held to expected.json.
        let mut pinned = Run::new(Workload::Cluster4n, Some(rep(5.0).virt));
        pinned.push(rep(6.0));
        assert_eq!(pinned.failures.len(), 1);
        assert!(pinned.failures[0].contains("expected.json"));
    }

    #[test]
    fn schedule_probe_interpolates_between_the_probed_lengths() {
        assert_eq!(probe_at(64.0, 700.0, 5000.0), 700.0);
        assert_eq!(probe_at(1000.0, 700.0, 5000.0), 5000.0);
        assert_eq!(probe_at(532.0, 0.0, 936.0), 468.0);
        assert_eq!(probe_at(0.0, 10.0, 10_000.0), 0.0);
    }
}
