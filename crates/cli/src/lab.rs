//! The `lab` subcommand: drive `elsc-lab` sweeps from the shell.
//!
//! ```text
//! elsc-sim lab sweep   [--spec NAME | --spec-file PATH | --all-figures]
//!                      [--workers N] [--out PATH] [--cache-dir PATH] [--force]
//! elsc-sim lab render  NAME [--workers N] [--out PATH] [--cache-dir PATH] [--force]
//! elsc-sim lab compare --manifest PATH --baseline PATH [--threshold PCT]
//! elsc-sim lab ls
//! ```
//!
//! `sweep` expands the spec into cells, executes the dirty ones on a
//! worker pool (cache hits are loaded, not re-run), writes the manifest,
//! and exits non-zero if any cell failed. `render` sweeps one experiment
//! table the same way and prints it. `compare` diffs two
//! manifests and exits non-zero on regressions or missing cells. `ls`
//! lists the builtin specs.

use std::path::PathBuf;

use elsc_lab::{compare, Cache, RunOptions, SweepRun, SweepSpec};

use crate::args::Args;
use crate::render::RENDERERS;

/// Default regression threshold, percent.
const DEFAULT_THRESHOLD_PCT: f64 = 5.0;

/// Entry point for `elsc-sim lab ...` (everything after the `lab`
/// token). Returns `Err` with a message for any failure; the caller maps
/// that to a non-zero exit code.
pub fn run_lab(a: &Args) -> Result<(), String> {
    match a.command.as_deref() {
        Some("sweep") => sweep(a),
        Some("render") => render(a),
        Some("compare") => run_compare(a),
        Some("ls") => {
            ls();
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown lab command '{other}' (sweep|render|compare|ls)"
        )),
        None => {
            print!("{LAB_USAGE}");
            Ok(())
        }
    }
}

/// Resolves the specs a `sweep` invocation asks for.
fn specs(a: &Args) -> Result<Vec<SweepSpec>, String> {
    let mut chosen = Vec::new();
    if a.flag("all-figures") {
        // An experiment table is a builtin with a renderer; the gate
        // builtins (smoke, chaos, topo, ...) have none.
        for (name, _) in RENDERERS {
            chosen.push(SweepSpec::builtin(name).expect("every renderer names a builtin"));
        }
    }
    if let Some(name) = a.get("spec") {
        chosen.push(
            SweepSpec::builtin(name)
                .ok_or_else(|| format!("no builtin spec '{name}' (try: elsc-sim lab ls)"))?,
        );
    }
    if let Some(path) = a.get("spec-file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        chosen.push(text.parse().map_err(|e| format!("{path}: {e}"))?);
    }
    if chosen.is_empty() {
        return Err(
            "nothing to sweep: give --spec NAME, --spec-file PATH, or --all-figures".to_string(),
        );
    }
    Ok(chosen)
}

/// Runs one spec through the shared cache on the worker pool, prints
/// the status line, reports failed cells on stderr and writes the
/// manifest (to `--out` when `out_flag` allows it, else under
/// `results/lab/`).
fn sweep_one(a: &Args, spec: &SweepSpec, out_flag: bool) -> Result<SweepRun, String> {
    let workers: usize = a
        .get_or(
            "workers",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .map_err(|e| e.to_string())?;
    let opts = RunOptions {
        workers: workers.max(1),
        force: a.flag("force"),
    };
    let cache = Cache::new(
        a.get("cache-dir")
            .map_or_else(Cache::default_dir, PathBuf::from),
    );
    let run = elsc_lab::run_sweep(spec, &cache, &opts);
    println!(
        "sweep {}: {} cells, {} executed, {} cached, {} failed ({} workers)",
        spec.name,
        run.outcomes.len() + run.failures.len(),
        run.executed,
        run.cached,
        run.failures.len(),
        opts.workers
    );
    for (cell, err) in &run.failures {
        eprintln!("  FAILED {cell}: {err}");
    }
    if let Some(manifest) = run.manifest() {
        let out = match a.get("out") {
            Some(path) if out_flag => PathBuf::from(path),
            _ => PathBuf::from("results/lab").join(format!("{}.json", spec.name)),
        };
        elsc_lab::write_manifest(&out, &manifest)
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("  manifest -> {}", out.display());
    }
    Ok(run)
}

/// `lab sweep`: run the requested specs, write manifests, report stats.
fn sweep(a: &Args) -> Result<(), String> {
    let specs = specs(a)?;
    // With several specs one --out path would self-overwrite.
    let multi = specs.len() > 1;
    let mut failed = 0usize;
    for spec in &specs {
        failed += sweep_one(a, spec, !multi)?.failures.len();
    }
    if failed > 0 {
        return Err(format!("{failed} cell(s) failed"));
    }
    Ok(())
}

/// `lab render NAME`: sweep one experiment table exactly as `lab sweep`
/// would, then print it. A table is never printed over a sweep
/// with failed cells.
fn render(a: &Args) -> Result<(), String> {
    let name = a.get("spec").unwrap_or("");
    let (_, table) = RENDERERS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
        let known: Vec<&str> = RENDERERS.iter().map(|(n, _)| *n).collect();
        format!("no renderer for '{name}' (one of: {})", known.join(", "))
    })?;
    let spec = SweepSpec::builtin(name).expect("every renderer names a builtin");
    let run = sweep_one(a, &spec, true)?;
    if !run.ok() {
        return Err(format!("{} cell(s) failed", run.failures.len()));
    }
    println!();
    table(&run);
    Ok(())
}

/// `lab compare`: gate a manifest against a baseline.
fn run_compare(a: &Args) -> Result<(), String> {
    let manifest = a
        .get("manifest")
        .ok_or("compare needs --manifest PATH (the current run)")?;
    let baseline = a
        .get("baseline")
        .ok_or("compare needs --baseline PATH (the committed reference)")?;
    let pct: f64 = a
        .get_or("threshold", DEFAULT_THRESHOLD_PCT)
        .map_err(|e| e.to_string())?;
    if pct.is_nan() || pct < 0.0 {
        return Err(format!(
            "--threshold must be a non-negative percent, got {pct}"
        ));
    }
    let threshold = pct / 100.0;
    let cur =
        std::fs::read_to_string(manifest).map_err(|e| format!("cannot read {manifest}: {e}"))?;
    let base =
        std::fs::read_to_string(baseline).map_err(|e| format!("cannot read {baseline}: {e}"))?;
    let report = compare(&cur, &base, threshold)?;
    print!("{}", report.render(threshold));
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "regression gate failed ({} regression(s), {} missing cell(s))",
            report.regressions.len(),
            report.missing.len()
        ))
    }
}

/// `lab ls`: the builtin specs and their grid sizes.
fn ls() {
    println!("{:<14} {:>6}  axes", "spec", "cells");
    for name in SweepSpec::BUILTINS {
        let spec = SweepSpec::builtin(name).expect("builtin");
        let sweep_axes: Vec<String> = spec
            .params
            .iter()
            .filter(|(_, vals)| vals.len() > 1)
            .map(|(k, vals)| format!("{k}x{}", vals.len()))
            .collect();
        println!(
            "{:<14} {:>6}  {} | sched x{} shape x{} seed x{}{}",
            name,
            spec.cells().len(),
            spec.workload,
            spec.scheds.len(),
            spec.shapes.len(),
            spec.seeds.len(),
            if sweep_axes.is_empty() {
                String::new()
            } else {
                format!(" {}", sweep_axes.join(" "))
            }
        );
    }
}

/// Help text for `elsc-sim lab`.
pub const LAB_USAGE: &str = "\
elsc-sim lab: parallel experiment orchestrator (sweeps, cache, gate)

usage:
  elsc-sim lab sweep   [--spec NAME | --spec-file PATH | --all-figures]
                       [--workers N] [--out PATH] [--cache-dir PATH] [--force]
  elsc-sim lab render  NAME [--workers N] [--out PATH] [--cache-dir PATH] [--force]
  elsc-sim lab compare --manifest PATH --baseline PATH [--threshold PCT]
  elsc-sim lab ls

render: sweep one experiment table (figure2..figure6, table2,
kernel_share, contention, gooch, latency) through the shared cache
exactly as `lab sweep --spec NAME` does, then print it. Takes the sweep
options below.

sweep options:
  --spec NAME      a builtin spec (elsc-sim lab ls)
  --spec-file P    a spec file in the lab text format (see DESIGN.md sec. 7)
  --all-figures    every table `render` knows: figure2..figure6, table2,
                   kernel_share, contention, gooch, latency (manifests
                   under results/lab/; the smoke, chaos, topo, policy,
                   cluster, mega, and learn gates are separate specs)
  --workers N      worker threads                  [host parallelism]
  --out PATH       manifest path (single spec only) [results/lab/<name>.json]
  --cache-dir P    result cache directory           [results/lab/cache]
  --force          ignore cache hits, re-execute every cell

compare options:
  --manifest P     the freshly produced manifest
  --baseline P     the committed reference (BENCH_baseline.json)
  --threshold PCT  fail on > PCT% growth in cycles_per_schedule or
                   sched_time_share, or > PCT% decline in
                   sim_events_per_sec or prediction_accuracy where both
                   manifests carry it [5]; wall_ratio gates separately
                   at a fixed 2x factor

environment (figure builtins and contention): ELSC_MESSAGES
(messages/user, default 20), ELSC_ITERATIONS (seeds per cell, default 1;
first discarded when > 1). Anything but a whole number of at least 1 is
bad usage.

exit status: 0 all cells ran and the gate passed; 1 any cell failed,
any regression, or any baseline cell missing; 2 bad usage.
";
