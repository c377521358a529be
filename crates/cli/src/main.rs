//! `elsc-sim`: run any workload under any scheduler from the shell.
//!
//! ```text
//! elsc-sim <workload> [--sched LIST] [--cpus N] [--seed N] [workload flags]
//! ```
//!
//! (`elsc-sim --help` is the full manual.) The flags describe a run the
//! same way a lab sweep does: [`cell`] turns them into an
//! `elsc_lab::CellConfig`, whose registry types (`SchedId`, `Shape`,
//! `WorkloadCell`) build the scheduler, the machine configuration and
//! the populated machine. The workloads, their flags and their defaults
//! are the registry's (`WorkloadCell::ALL`); nothing in this file names a
//! scheduler or a workload config directly.

mod args;
mod lab;
mod learn;
mod render;

use args::Args;

use std::fs::File;
use std::io::BufWriter;

use elsc_cluster::{Cluster, ClusterConfig, ClusterReport, DispatcherId};
use elsc_lab::{CellConfig, ChaosSpec, SchedId, Shape, WorkloadCell};
use elsc_machine::{Machine, MachineConfig, RunReport};
use elsc_obs::{first_divergence, JsonLinesSink, ObsRecord};
use elsc_policy::PolicyScheduler;
use elsc_sched_api::{LockPlan, Scheduler};
use elsc_simcore::{Topology, MAX_CPUS};
use elsc_stats::render::render_proc;

/// Instantiates a scheduler the registry ([`SchedId`]) has parsed. The
/// one CLI-only twist is `--policy-budget`, which re-caps a `.pol`
/// program's per-decision instruction budget.
fn scheduler(id: &SchedId, topo: Topology, policy_budget: Option<u64>) -> Box<dyn Scheduler> {
    match (id, policy_budget) {
        (SchedId::Policy { src, .. }, Some(budget)) => Box::new(
            PolicyScheduler::load_str(src, topo.nr_cpus())
                .expect("the registry verified the program at parse time")
                .with_budget(budget),
        ),
        _ => id.build(topo),
    }
}

/// The declared machine shape: `--topology` when given (checked against
/// `--cpus` if both appear), otherwise the flat tree of `--cpus`.
fn declared_topology(a: &Args) -> Result<Topology, String> {
    match a.get("topology") {
        Some(text) => {
            if a.flag("up") {
                return Err("--topology conflicts with --up (a UP machine is flat)".into());
            }
            let topo: Topology = text.parse().map_err(|e| format!("--topology: {e}"))?;
            let cpus: usize = a
                .get_or("cpus", topo.nr_cpus())
                .map_err(|e| e.to_string())?;
            if cpus != topo.nr_cpus() {
                return Err(format!(
                    "--cpus {cpus} disagrees with --topology {topo} ({} CPUs)",
                    topo.nr_cpus()
                ));
            }
            Ok(topo)
        }
        None => {
            let cpus: usize = a.get_or("cpus", 1).map_err(|e| e.to_string())?;
            if !(1..=MAX_CPUS).contains(&cpus) {
                return Err(format!("--cpus {cpus}: a machine has 1 to {MAX_CPUS} CPUs"));
            }
            Ok(Topology::flat(if a.flag("up") { 1 } else { cpus }))
        }
    }
}

/// Reads `--policy-budget` (per-decision policy instruction cap).
fn policy_budget(a: &Args) -> Result<Option<u64>, String> {
    match a.get("policy-budget") {
        None => Ok(None),
        Some(text) => text
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("--policy-budget: invalid value '{text}'")),
    }
}

/// The registry entry `name` at the CLI's documented defaults: the
/// lab's, except for fewer messages on the chat benchmarks.
fn cli_default(name: &str) -> Option<WorkloadCell> {
    // `volanomark` is the benchmark's proper name; accept both.
    let mut w = WorkloadCell::named(if name == "volanomark" { "volano" } else { name })?;
    let differ: &[(&str, u64)] = match w {
        WorkloadCell::Volano { .. } => &[("messages", 10)],
        WorkloadCell::Cluster { .. } => &[("rooms", 5), ("users", 20), ("messages", 10)],
        _ => &[],
    };
    for &(k, v) in differ {
        w.set(k, v).expect("a parameter of the workload");
    }
    Some(w)
}

/// The workload the command line names, with its flags applied. A flag
/// of another workload is refused in the spec grammar's words.
fn workload(a: &Args) -> Result<WorkloadCell, String> {
    let name = a.command.as_deref().unwrap_or("");
    let mut w =
        cli_default(name).ok_or_else(|| format!("unknown workload '{name}' (see --help)"))?;
    for key in a.keys() {
        match key {
            // `--epoch` paces the cluster's exchange: it goes where the
            // dispatcher axis goes.
            "dispatcher" | "epoch" if !w.takes("dispatcher") => return Err(w.refusal(key)),
            _ if !WorkloadCell::is_param(key) => {}
            _ if !w.takes(key) => return Err(w.refusal(key)),
            _ => w.set(key, a.get_or(key, 0).map_err(|e| e.to_string())?)?,
        }
    }
    if let (Some(text), WorkloadCell::Cluster { dispatcher, .. }) = (a.get("dispatcher"), &mut w) {
        *dispatcher = text.parse().map_err(|e| format!("--dispatcher: {e}"))?;
    }
    Ok(w)
}

/// The run the command line describes, as the lab cell it is: every
/// flag that says *what* to simulate. The cell's own methods turn it
/// into a configured, populated machine — the same path a lab sweep
/// takes — and [`machine_cfg`] layers the CLI-only observers on top.
fn cell(a: &Args, sched: SchedId) -> Result<CellConfig, String> {
    let topo = declared_topology(a)?;
    let workload = workload(a)?;
    workload
        .check(topo.nr_cpus())
        .map_err(|(k, v, e)| format!("--{k} {v}: {e}"))?;
    let lock_plan = match a.get("lock-plan") {
        None => None,
        // `pernode` alone resolves against the declared topology; the
        // explicit `pernode:K` spelling is handled by the parser.
        Some("pernode") => Some(LockPlan::PerNode(topo.cpus_per_node())),
        Some(text) => Some(text.parse().map_err(|e| format!("--lock-plan: {e}"))?),
    };
    let fault_seed = match a.get("fault-seed") {
        None => MachineConfig::up().fault_seed,
        Some(text) => text
            .parse()
            .map_err(|_| format!("--fault-seed: invalid value '{text}'"))?,
    };
    Ok(CellConfig {
        sched,
        // A declared flat tree is the same shape as --cpus N:
        // `--topology 1N4C1T` and `--cpus 4` are byte-identical runs.
        shape: if a.flag("up") {
            Shape::Up
        } else {
            Shape::from(topo)
        },
        lock_plan,
        seed: a.get_or("seed", 23_062).map_err(|e| e.to_string())?,
        workload,
        chaos: ChaosSpec {
            faults: a.get("faults").map(str::to_string),
            fault_seed,
            oracle: a.flag("oracle"),
        },
    })
}

/// The cell's machine configuration plus the CLI-only observers.
fn machine_cfg(a: &Args, cell: &CellConfig) -> Result<MachineConfig, String> {
    // `--diff` needs the in-memory ring populated; give it a generous
    // default capacity unless the user chose one.
    let trace_default = if a.flag("diff") { 200_000 } else { 0 };
    let trace: usize = a
        .get_or("trace", trace_default)
        .map_err(|e| e.to_string())?;
    Ok(cell
        .machine_config()
        // The only thing a CLI cell's config can reject is its fault plan.
        .map_err(|e| format!("--faults: {e}"))?
        // The report names the fault seed whenever the oracle is on; a
        // lab cell leaves it at the default unless faults are injected,
        // the CLI has always reported the flag.
        .with_fault_seed(cell.chaos.fault_seed)
        .with_trace(trace)
        .with_decision_trace(a.flag("decision-trace")))
}

/// Everything one simulation run produces.
struct RunOutcome {
    /// The machine's report.
    report: RunReport,
    /// Name of the headline throughput metric, if the workload has one.
    metric: Option<&'static str>,
    /// Human-readable trace summary when `--trace N` was given.
    trace_text: Option<String>,
    /// The in-memory trace ring (empty unless tracing was enabled).
    records: Vec<ObsRecord>,
    /// Records the `--trace-out` file sink failed to write. The bounded
    /// `--trace N` ring overflowing is by design and not counted here.
    trace_lost: u64,
}

/// Runs the command line's workload on one machine under the scheduler
/// `name`; `trace_out` streams the full event trace to a JSON-lines file
/// as the run executes.
fn run_one(a: &Args, name: &str, trace_out: Option<&str>) -> Result<RunOutcome, String> {
    let cell = cell(a, name.parse()?)?;
    let sched = scheduler(&cell.sched, cell.shape.topology(), policy_budget(a)?);
    let mut machine = Machine::new(machine_cfg(a, &cell)?, sched);
    if let Some(path) = trace_out {
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        machine.add_sink(Box::new(JsonLinesSink::new(BufWriter::new(file))));
    }
    cell.workload.populate(&mut machine);
    let metric = cell.workload.metric_key();
    let report = machine.run().map_err(|e| e.to_string())?;
    let trace_text = if machine.trace().enabled() {
        let mut out = String::new();
        for r in machine.trace().records().iter().take(40) {
            out.push_str(&format!("    {:>14} {:?}\n", r.at.get(), r.event));
        }
        let total = machine.trace().records().len();
        out.push_str(&format!(
            "    ({} records kept, {} dropped)\n",
            total,
            machine.trace().dropped()
        ));
        Some(out)
    } else {
        None
    };
    let records = machine.trace().records().to_vec();
    // The file sink is the only external sink, so whatever the bus lost
    // beyond the ring's own overflow, the file lost.
    let trace_lost = report.trace_dropped - machine.trace().dropped();
    Ok(RunOutcome {
        report,
        metric,
        trace_text,
        records,
        trace_lost,
    })
}

/// When several schedulers share one output path, suffix each file with
/// the scheduler name so they do not overwrite each other. Policy specs
/// (`policy:policies/rr.pol`) are flattened to a path-safe tag.
fn per_sched_path(base: &str, name: &str, multi: bool) -> String {
    if multi {
        format!("{base}.{}", name.replace(['/', ':', '\\'], "_"))
    } else {
        base.to_string()
    }
}

/// The `--sched` comma list (default `reg,elsc`).
fn sched_names(a: &Args) -> Vec<&str> {
    a.get("sched")
        .unwrap_or("reg,elsc")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Full run across the requested schedulers.
fn run(a: &Args) -> Result<(), String> {
    if a.flag("compare") {
        return run_compare(a);
    }
    if a.flag("diff") {
        return run_diff(a);
    }
    let names = sched_names(a);
    let multi = names.len() > 1;
    // `--oracle` turns the §5 equivalence claim into the exit code:
    // any unexplained divergence or invariant violation fails the run.
    let mut oracle_failures: Vec<String> = Vec::new();
    for name in names {
        let trace_out = a.get("trace-out").map(|p| per_sched_path(p, name, multi));
        let out = run_one(a, name, trace_out.as_deref())?;
        let report = &out.report;
        if !a.flag("quiet") {
            println!("{report}");
            if let Some(metric) = out.metric {
                println!("  {} = {:.0}/s", metric, report.per_sec(metric));
            }
        }
        if a.flag("profile") {
            println!("{}", report.profile);
        }
        if a.flag("proc") {
            println!("{}", render_proc(&report.stats));
        }
        if a.flag("latency") {
            for (k, h) in report.dists.iter() {
                println!("  {k}: {}", h.summary());
            }
        }
        if let Some(trace) = &out.trace_text {
            println!("  trace (first 40 events):");
            print!("{trace}");
        }
        if let Some(path) = a.get("report-json") {
            let path = per_sched_path(path, name, multi);
            std::fs::write(&path, out.report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !a.flag("quiet") {
                println!("  report written to {path}");
            }
        }
        if let Some(e) = report.oracle_failure() {
            oracle_failures.push(format!("{name}: {e}"));
        }
        if let (Some(path), 1..) = (&trace_out, out.trace_lost) {
            // A truncated trace is not the trace that was asked for.
            return Err(format!(
                "--trace-out {path}: {} trace record(s) were not written",
                out.trace_lost
            ));
        }
    }
    if !oracle_failures.is_empty() {
        return Err(format!("oracle: {}", oracle_failures.join("; ")));
    }
    Ok(())
}

/// `--diff`: run the same workload and seed under two schedulers and
/// report where their event traces first diverge.
fn run_diff(a: &Args) -> Result<(), String> {
    let names = sched_names(a);
    if names.len() != 2 {
        return Err(format!(
            "--diff compares exactly two schedulers (got '{}'; try --sched reg,elsc)",
            a.get("sched").unwrap_or("reg,elsc")
        ));
    }
    let first = run_one(a, names[0], None)?;
    let second = run_one(a, names[1], None)?;
    println!("trace diff: {} vs {}", names[0], names[1]);
    println!("{}", first_divergence(&first.records, &second.records));
    Ok(())
}

/// One-line-per-scheduler comparison table.
fn run_compare(a: &Args) -> Result<(), String> {
    println!(
        "{:<7} {:>10} {:>10} {:>12} {:>10} {:>9} {:>9}",
        "sched", "elapsed_s", "cyc/sched", "exam/sched", "recalcs", "new_cpu", "metric/s"
    );
    for name in sched_names(a) {
        let RunOutcome { report, metric, .. } = run_one(a, name, None)?;
        let t = report.stats.total();
        let rate = metric.map(|m| report.per_sec(m)).unwrap_or(0.0);
        println!(
            "{:<7} {:>10.3} {:>10.0} {:>12.2} {:>10} {:>9} {:>9.0}",
            name,
            report.elapsed_secs(),
            t.cycles_per_schedule(),
            t.tasks_examined_per_schedule(),
            t.recalc_entries,
            t.picked_new_cpu,
            rate
        );
    }
    Ok(())
}

/// Runs the federated cluster the command line describes under the
/// scheduler `name`, every node built from the same registry entry.
fn run_cluster_one(a: &Args, name: &str) -> Result<ClusterReport, String> {
    let cell = cell(a, name.parse()?)?;
    let mut ccfg: ClusterConfig = cell
        .cluster_config()
        .map_err(|e| format!("--faults (cluster classes): {e}"))?;
    if let Some(text) = a.get("epoch") {
        ccfg.epoch_cycles = text
            .parse()
            .map_err(|_| format!("--epoch: invalid cycle count '{text}'"))?;
        if ccfg.epoch_cycles == 0 {
            return Err("--epoch must be a positive cycle count".into());
        }
    }
    let (topo, budget) = (cell.shape.topology(), policy_budget(a)?);
    let mut cluster = Cluster::new(ccfg, |_node| scheduler(&cell.sched, topo, budget));
    cell.workload.populate_cluster(&mut cluster);
    cluster.run().map_err(|e| e.to_string())
}

/// `elsc-sim cluster`: run the federated VolanoMark cluster (the
/// two-level scheduler of `elsc-cluster`) under each requested kernel
/// scheduler and print the merged report.
///
/// `--faults` here takes *cluster* fault classes (partition, slow_link,
/// node_pause, or the light/heavy presets), not the machine classes.
fn run_cluster(a: &Args) -> Result<(), String> {
    let names = sched_names(a);
    let multi = names.len() > 1;
    let mut oracle_failures: Vec<String> = Vec::new();
    for name in names {
        let report = run_cluster_one(a, name)?;
        if !a.flag("quiet") {
            println!(
                "cluster: {} nodes, dispatcher={}, sched={}, seed={}",
                report.nodes.len(),
                report.dispatcher,
                name,
                // Node 0 runs on the cluster seed itself.
                report.nodes[0].seed
            );
            println!(
                "  elapsed = {:.3}s (makespan)   messages = {} ({:.0}/s)",
                report.elapsed_secs(),
                report.ledger_total("messages"),
                report.per_sec("messages")
            );
            println!("  tasks per node = {:?}", report.node_tasks());
            for l in &report.links {
                println!(
                    "  link {}->{}: {} msgs, {} bytes, {} held by faults",
                    l.from, l.to, l.stats.msgs, l.stats.bytes, l.stats.held
                );
            }
            if report.links.is_empty() {
                println!("  (no cross-node traffic: every room is self-contained)");
            }
            if report.fault_counts.total() > 0 {
                println!("  cluster faults: {:?}", report.fault_counts);
            }
        }
        if a.flag("proc") {
            for (n, node) in report.nodes.iter().enumerate() {
                println!("node {n}:\n{}", render_proc(&node.stats));
            }
        }
        if let Some(path) = a.get("report-json") {
            let path = per_sched_path(path, name, multi);
            std::fs::write(&path, report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !a.flag("quiet") {
                println!("  report written to {path}");
            }
        }
        for (n, node) in report.nodes.iter().enumerate() {
            if let Some(e) = node.oracle_failure() {
                oracle_failures.push(format!("{name} node {n}: {e}"));
            }
        }
    }
    if !oracle_failures.is_empty() {
        return Err(format!("oracle: {}", oracle_failures.join("; ")));
    }
    Ok(())
}

/// `elsc-sim ls`: enumerate everything runnable — the native schedulers,
/// every `.pol` policy discovered on disk, and the workloads. The policy
/// column shows load-time facts (or the first diagnostic) so a glance
/// tells you what `--sched policy:<file>` would accept.
fn run_ls(a: &Args) -> Result<(), String> {
    println!("native schedulers (--sched NAME):");
    for id in SchedId::NATIVE {
        println!("  {:<10} {}", id.label(), id.describe());
    }
    let dir = a.get("policy-dir").unwrap_or("policies");
    println!("\npolicies ({dir}/*.pol, run with --sched policy:<file>):");
    let mut entries: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "pol"))
            .collect(),
        Err(e) => {
            println!("  (cannot read {dir}: {e})");
            Vec::new()
        }
    };
    entries.sort();
    for path in &entries {
        let shown = path.display();
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|src| elsc_policy::load_str(&src).map_err(|e| e.to_string()))
        {
            Ok(prog) => {
                let lists = match prog.lists {
                    elsc_policy::ListsDecl::Fixed(n) => n.to_string(),
                    elsc_policy::ListsDecl::PerCpu => "percpu".to_string(),
                };
                println!(
                    "  {shown:<28} policy:{:<8} lists={lists:<7} static_insns={}",
                    prog.name,
                    prog.total_static_insns()
                );
            }
            Err(e) => println!("  {shown:<28} INVALID: {e}"),
        }
    }
    if entries.is_empty() {
        println!("  (none found)");
    }
    println!("\nlearned models (models/*.model, run with --sched learned:<file>):");
    let mut models: Vec<std::path::PathBuf> = match std::fs::read_dir("models") {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "model"))
            .collect(),
        Err(e) => {
            println!("  (cannot read models: {e})");
            Vec::new()
        }
    };
    models.sort();
    for path in &models {
        let shown = path.display();
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|src| elsc_learn::Model::parse(&src))
        {
            Ok(m) => println!("  {shown:<28} arch={:<7} seed={}", m.arch.name(), m.seed),
            Err(e) => println!("  {shown:<28} INVALID: {e}"),
        }
    }
    if models.is_empty() {
        println!("  (none found; train one with elsc-sim learn train)");
    }
    println!("\nworkloads:");
    for w in WorkloadCell::ALL {
        println!("  {:<10} {}", w.name(), w.describe());
    }
    println!("\ncluster dispatchers (elsc-sim cluster --dispatcher NAME):");
    for d in DispatcherId::ALL {
        println!("  {:<16} {}", d.label(), d.describe());
    }
    println!("\nlab builtins (elsc-sim lab sweep --spec NAME; elsc-sim lab ls for sizes):");
    println!("  {}", elsc_lab::SweepSpec::BUILTINS.join(", "));
    Ok(())
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    // `lab` and `learn` are command families with their own
    // sub-subcommand (sweep/render/compare/ls, train/eval), so they are peeled
    // off before the flat workload parser.
    let is_lab = raw.first().map(String::as_str) == Some("lab");
    let is_learn = !is_lab && raw.first().map(String::as_str) == Some("learn");
    if is_lab || is_learn {
        raw.remove(0);
    }
    // `lab render NAME` is sugar for `lab render --spec NAME`.
    if is_lab
        && raw.first().map(String::as_str) == Some("render")
        && raw.get(1).is_some_and(|s| !s.starts_with("--"))
    {
        raw.insert(1, "--spec".to_string());
    }
    let a = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if is_lab {
        if a.flag("help") {
            print!("{}", lab::LAB_USAGE);
            return;
        }
        if let Err(e) = lab::run_lab(&a) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if is_learn {
        if a.flag("help") {
            print!("{}", learn::LEARN_USAGE);
            return;
        }
        if let Err(e) = learn::run_learn(&a) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if a.flag("help") || a.command.is_none() {
        print!("{}", usage());
        return;
    }
    if a.command.as_deref() == Some("ls") {
        if let Err(e) = run_ls(&a) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if a.command.as_deref() == Some("cluster") {
        if let Err(e) = run_cluster(&a) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = run(&a) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Help text: [`USAGE`] with the registry's workloads before its
/// options and their flags, at the CLI's defaults, after them.
fn usage() -> String {
    let (head, options) = USAGE
        .split_once("\ncommon options:")
        .expect("usage has options");
    let mut list = String::new();
    let mut flags = String::new();
    for w in WorkloadCell::ALL {
        list += &format!("  {:<9} {}\n", w.name(), w.describe());
        let w = cli_default(w.name()).expect("a registry name");
        flags += &format!("  {:<9}", w.name());
        for (k, v) in w.params() {
            flags += &format!(" --{k} {v}");
        }
        flags += "\n";
    }
    format!(
        "{head}\nworkloads (volanomark = volano):\n{list}\ncommon options:{options}\n\
         workload flags, at their defaults (another workload's flag is an error):\n{flags}"
    )
}

/// The help text around the registry's workloads and their flags.
const USAGE: &str = "\
elsc-sim: scheduler simulator for 'Scalable Linux Scheduling' (CITI TR 01-7)

usage: elsc-sim <workload> [options]
       elsc-sim cluster [options]                  (federated multi-node
                                                    simulation)
       elsc-sim ls [--policy-dir DIR]              (list schedulers,
                                                    policies, workloads)
       elsc-sim lab <sweep|render|compare|ls> ...  (elsc-sim lab --help)
       elsc-sim learn <train|eval> [options]       (elsc-sim learn --help)

common options:
  --sched LIST   comma list of reg,elsc,heap,aheap,mq,bubble, and/or
                 policy:FILE.pol (loadable policy) or
                 learned:FILE.model (trained model)     [reg,elsc]
  --cpus N       processors                            [1]
  --topology T   declared NUMA/SMT tree, e.g. 2N4C2T (2 nodes x 4 cores
                 x 2 threads = 16 CPUs) or 2P2N4C2T with packages; CPU
                 count follows the tree. 1N{P}C1T is byte-identical to
                 --cpus P. Shapes goodness affinity bonuses, migration
                 costs, mq steal locality, and the bubble scheduler
  --up           non-SMP kernel build (forces 1 CPU)
  --seed N       simulation seed                       [23062]
  --proc         print the /proc-style statistics table
  --latency      print latency/queue-length distributions
  --trace N      keep up to N scheduling-trace records
  --lock-plan P  force the run-queue locking regime: global, percpu,
                 pernode:K, or plain pernode to size domains from the
                 declared topology (default: whatever the scheduler
                 declares)
  --compare      one summary row per scheduler instead of full reports
  --quiet        suppress the standard report

policy runtime (loadable .pol schedulers):
  --sched policy:FILE.pol  load a text policy through the verifying
                 loader and run it on the bytecode VM; rejects malformed
                 programs with file:line:col
  --policy-budget N  per-decision policy instruction cap [65536];
                 blowing it (or a bad pick, or starving the queue) gets
                 the policy watchdog-ejected mid-run: the vanilla reg
                 scheduler takes over and the run completes

learned scheduling (offline-trained pick predictor, elsc-sim learn):
  --sched learned:FILE.model  score candidates with a trained model;
                 every pick is verified by a bounded goodness check,
                 a misprediction charges Mispredict cycles and falls
                 back to the native scan; 8 in a row eject the model
                 (reg takes over, the run completes)
  --decision-trace  emit per-decision candidate/label events into the
                 trace; capture with --trace-out, then train with
                 elsc-sim learn train

observability:
  --profile        print the cycle-attribution profile (per CPU x phase
                   x cost kind; the paper sec. 4 scheduler-share figure)
  --trace-out P    stream the full event trace to P as JSON lines
                   (deterministic: same seed => byte-identical file);
                   with several schedulers, P gets a .<sched> suffix;
                   a record the file did not take is an error (exit 1)
  --report-json P  write the whole run report to P as JSON
  --diff           run exactly two schedulers (--sched A,B) on the same
                   seed and report where their traces first diverge

chaos (fault injection & the differential oracle):
  --faults PLAN    inject deterministic faults: a preset (light, heavy,
                   net) or a comma list of key=rate pairs (ipi_delay,
                   ipi_drop, spurious_wakeup, tick_jitter, lock_hold,
                   short_write, peer_reset), each once, rates in [0,1]
                   and short_write below 1
  --fault-seed N   RNG seed for the fault streams; the same seed gives a
                   byte-identical run and report        [0xFA175EED]
  --oracle         replay an O(n) reference goodness() scan beside every
                   schedule() decision; any unexplained divergence or
                   run-queue invariant violation makes the run exit
                   non-zero (the paper's sec. 5 equivalence claim)

cluster (federated VolanoMark across --nodes simulated machines):
  --dispatcher D   placement policy: round-robin, least-loaded,
                   consistent-hash, or locality          [least-loaded]
  --epoch CYCLES   exchange-epoch length                 [400000]
  --faults PLAN    *cluster* fault classes: a preset (light, heavy) or
                   key=rate pairs (partition, slow_link, node_pause),
                   each once, rates in [0,1]
  per-node machine options (--cpus, --up, --seed, --lock-plan, --oracle)
  apply to every node
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string())).unwrap()
    }

    /// The machine configuration a command line resolves to.
    fn cfg_of(list: &[&str]) -> Result<MachineConfig, String> {
        let a = args(list);
        machine_cfg(&a, &cell(&a, SchedId::Reg)?)
    }

    #[test]
    fn declared_topology_follows_the_flags() {
        let topo = declared_topology(&args(&["volano", "--topology", "2N4C2T"])).unwrap();
        assert_eq!(topo.to_string(), "2N4C2T");
        assert_eq!(topo.nr_cpus(), 16);
        // Consistent --cpus is accepted, disagreement is an error.
        assert!(
            declared_topology(&args(&["volano", "--topology", "2N4C2T", "--cpus", "16"])).is_ok()
        );
        let err = declared_topology(&args(&["volano", "--topology", "2N4C2T", "--cpus", "4"]))
            .unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
        let err =
            declared_topology(&args(&["volano", "--topology", "2N4C2T", "--up"])).unwrap_err();
        assert!(err.contains("--up"), "{err}");
        // No --topology: the flat tree of --cpus.
        let topo = declared_topology(&args(&["volano", "--cpus", "3"])).unwrap();
        assert_eq!(topo, Topology::flat(3));
    }

    #[test]
    fn machine_cfg_flat_topology_matches_plain_cpus() {
        // The CI flat-equivalence gate in config form: a declared flat
        // tree is *the same configuration* as --cpus N.
        let a = cfg_of(&["volano", "--topology", "1N4C1T"]).unwrap();
        let b = cfg_of(&["volano", "--cpus", "4"]).unwrap();
        assert_eq!(a.sched.topology, b.sched.topology);
        assert_eq!(a.sched.label(), b.sched.label());
        assert_eq!(a.nr_cpus(), b.nr_cpus());
    }

    #[test]
    fn pernode_lock_plan_resolves_against_the_topology() {
        let cfg = cfg_of(&["volano", "--topology", "2N4C2T", "--lock-plan", "pernode"]).unwrap();
        assert_eq!(cfg.lock_plan, Some(LockPlan::PerNode(8)));
        let cfg = cfg_of(&["volano", "--lock-plan", "pernode:2", "--cpus", "4"]).unwrap();
        assert_eq!(cfg.lock_plan, Some(LockPlan::PerNode(2)));
    }

    #[test]
    fn machine_cfg_respects_up_flag() {
        let cfg = cfg_of(&["volano", "--up", "--cpus", "4"]).unwrap();
        assert!(!cfg.sched.smp);
        assert_eq!(cfg.nr_cpus(), 1);
        let cfg = cfg_of(&["volano", "--cpus", "4"]).unwrap();
        assert!(cfg.sched.smp);
        assert_eq!(cfg.nr_cpus(), 4);
    }

    #[test]
    fn machine_cfg_parses_lock_plan() {
        let cfg = cfg_of(&["volano", "--lock-plan", "percpu"]).unwrap();
        assert_eq!(cfg.lock_plan, Some(LockPlan::PerCpu));
        let cfg = cfg_of(&["volano"]).unwrap();
        assert_eq!(cfg.lock_plan, None);
        let err = cfg_of(&["volano", "--lock-plan", "banana"]).unwrap_err();
        assert!(err.contains("--lock-plan"), "{err}");
    }

    #[test]
    fn lock_plan_override_reaches_the_report() {
        let a = args(&[
            "stress",
            "--tasks",
            "8",
            "--rounds",
            "3",
            "--cpus",
            "2",
            "--lock-plan",
            "percpu",
            "--quiet",
        ]);
        let out = run_one(&a, "reg", None).unwrap();
        assert_eq!(out.report.lock_plan, "percpu");
        assert_eq!(out.report.lock_domains.len(), 2);
    }

    #[test]
    fn machine_cfg_parses_chaos_options() {
        let cfg = cfg_of(&[
            "stress",
            "--faults",
            "light",
            "--fault-seed",
            "41",
            "--oracle",
        ])
        .unwrap();
        assert!(cfg.faults.is_some());
        assert_eq!(cfg.fault_seed, 41);
        assert!(cfg.oracle);
        let cfg = cfg_of(&["stress"]).unwrap();
        assert!(cfg.faults.is_none());
        assert!(!cfg.oracle);
        let err = cfg_of(&["stress", "--faults", "banana"]).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }

    #[test]
    fn oracle_run_is_clean_and_reported() {
        let a = args(&[
            "stress", "--tasks", "8", "--rounds", "3", "--oracle", "--quiet",
        ]);
        let out = run_one(&a, "elsc", None).unwrap();
        let o = out
            .report
            .chaos
            .as_ref()
            .and_then(|c| c.oracle.as_ref())
            .expect("oracle report");
        assert!(o.decisions > 0);
        assert!(o.clean(), "stress under elsc must match the reference");
    }

    #[test]
    fn small_volano_runs_end_to_end() {
        let a = args(&[
            "volano",
            "--rooms",
            "1",
            "--users",
            "3",
            "--messages",
            "2",
            "--quiet",
        ]);
        let out = run_one(&a, "elsc", None).unwrap();
        assert_eq!(out.metric, Some("messages"));
        assert_eq!(out.report.ledger.get("messages"), 3 * 3 * 2);
        assert!(out.trace_text.is_none(), "tracing is off by default");
    }

    #[test]
    fn small_stress_runs_end_to_end() {
        let a = args(&["stress", "--tasks", "4", "--rounds", "3"]);
        let out = run_one(&a, "reg", None).unwrap();
        assert_eq!(out.report.ledger.get("spins"), 12);
    }

    #[test]
    fn trace_flag_produces_a_summary() {
        let a = args(&["stress", "--tasks", "2", "--rounds", "2", "--trace", "100"]);
        let out = run_one(&a, "elsc", None).unwrap();
        let text = out.trace_text.expect("trace requested");
        assert!(text.contains("Switch"));
        assert!(text.contains("records kept"));
        assert!(!out.records.is_empty());
    }

    #[test]
    fn compare_mode_runs_all_schedulers() {
        let a = args(&[
            "stress",
            "--tasks",
            "4",
            "--rounds",
            "2",
            "--compare",
            "--sched",
            "reg,elsc,heap,aheap,mq",
        ]);
        assert!(run(&a).is_ok());
    }

    #[test]
    fn rtmix_runs_end_to_end() {
        let a = args(&["rtmix", "--quiet"]);
        let out = run_one(&a, "elsc", None).unwrap();
        assert!(out.report.ledger.get("fifo_activations") > 0);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let a = args(&["beleaguer"]);
        assert!(run(&a).is_err());
    }

    #[test]
    fn cluster_subcommand_runs_end_to_end() {
        let a = args(&[
            "cluster",
            "--nodes",
            "2",
            "--dispatcher",
            "round-robin",
            "--cpus",
            "2",
            "--rooms",
            "2",
            "--users",
            "4",
            "--messages",
            "2",
            "--sched",
            "elsc",
            "--quiet",
        ]);
        assert!(run_cluster(&a).is_ok());
    }

    #[test]
    fn cluster_subcommand_rejects_bad_axes() {
        let err =
            run_cluster(&args(&["cluster", "--dispatcher", "psychic", "--quiet"])).unwrap_err();
        assert!(err.contains("--dispatcher"), "{err}");
        let err = run_cluster(&args(&["cluster", "--nodes", "0", "--quiet"])).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
        // Machine fault classes are not cluster fault classes.
        let err =
            run_cluster(&args(&["cluster", "--faults", "ipi_drop=0.5", "--quiet"])).unwrap_err();
        assert!(err.contains("cluster classes"), "{err}");
        // A zero-cycle exchange epoch must be a CLI error, not a panic
        // from the federation's own assert.
        let err = run_cluster(&args(&["cluster", "--epoch", "0", "--quiet"])).unwrap_err();
        assert!(err.contains("--epoch"), "{err}");
    }

    #[test]
    fn cluster_subcommand_gates_on_the_oracle() {
        // Oracle on, light cluster faults: must stay clean and succeed.
        let a = args(&[
            "cluster",
            "--nodes",
            "2",
            "--rooms",
            "2",
            "--users",
            "4",
            "--messages",
            "2",
            "--faults",
            "light",
            "--oracle",
            "--sched",
            "elsc",
            "--quiet",
        ]);
        assert!(run_cluster(&a).is_ok());
    }

    fn pol(file: &str) -> String {
        format!(
            "policy:{}/../../policies/{file}",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    /// `--sched NAME` the way every run path resolves it: through the
    /// registry, then the CLI's budget-aware builder.
    fn sched(name: &str, topo: Topology) -> Result<Box<dyn Scheduler>, String> {
        Ok(scheduler(&name.parse()?, topo, None))
    }

    #[test]
    fn policy_factory_loads_pol_files() {
        let s = sched(&pol("reg.pol"), Topology::flat(2)).unwrap();
        assert_eq!(s.name(), "policy:reg");
        let err = sched("policy:/no/such/file.pol", Topology::flat(1))
            .err()
            .unwrap();
        assert!(err.contains("/no/such/file.pol"), "{err}");
    }

    #[test]
    fn malformed_policy_is_a_diagnostic_not_a_panic() {
        let err = sched(&pol("bad/undefined_var.pol"), Topology::flat(1))
            .err()
            .unwrap();
        // file:line:col: message — clickable, never a panic.
        assert!(err.contains("undefined_var.pol:6:16: "), "{err}");
        assert!(err.contains("winner"), "{err}");
    }

    #[test]
    fn learned_factory_loads_model_files() {
        let dir = std::env::temp_dir().join(format!("elsc-cli-learned-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("zero.model");
        let model = elsc_learn::Model::zeroed(elsc_learn::Arch::LogReg);
        std::fs::write(&path, model.to_text()).unwrap();
        let spec = format!("learned:{}", path.display());
        let s = sched(&spec, Topology::flat(2)).unwrap();
        assert_eq!(s.name(), "learned:zero");
        // Missing file and garbage bytes are diagnostics, not panics.
        let err = sched("learned:/no/such.model", Topology::flat(1))
            .err()
            .unwrap();
        assert!(err.contains("/no/such.model"), "{err}");
        std::fs::write(&path, "not a model").unwrap();
        let err = sched(&spec, Topology::flat(1)).err().unwrap();
        assert!(err.contains("zero.model"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn machine_cfg_parses_learned_options() {
        let cfg = cfg_of(&["volano", "--decision-trace"]).unwrap();
        assert!(cfg.decision_trace);
        let cfg = cfg_of(&["volano"]).unwrap();
        assert!(!cfg.decision_trace);
        assert_eq!(cfg.learn_eject_k, 8);
    }

    #[test]
    fn decision_trace_feeds_the_trainer_end_to_end() {
        // The full loop at CLI level: capture a labelled trace, train a
        // model on it, run the workload again under the trained model.
        let dir = std::env::temp_dir().join(format!("elsc-cli-loop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("volano.jsonl").display().to_string();
        let a = args(&[
            "volano",
            "--rooms",
            "1",
            "--users",
            "4",
            "--messages",
            "2",
            "--decision-trace",
            "--quiet",
        ]);
        run_one(&a, "reg", Some(&trace)).unwrap();
        let data = elsc_learn::parse_trace(&std::fs::read_to_string(&trace).unwrap());
        assert!(!data.decisions.is_empty(), "the trace must be labelled");
        let model = dir.join("volano.model").display().to_string();
        learn::run_learn(&args(&[
            "train",
            "--data",
            &trace,
            "--arch",
            "logreg",
            "--model-out",
            &model,
            "--quiet",
        ]))
        .unwrap();
        let out = run_one(&a, &format!("learned:{model}"), None).unwrap();
        assert_eq!(out.report.ledger.get("messages"), 4 * 4 * 2);
        let l = out.report.learned.as_ref().expect("learned summary");
        assert!(l.predictions > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_budget_flag_is_parsed() {
        let a = args(&["stress", "--policy-budget", "128"]);
        assert_eq!(policy_budget(&a).unwrap(), Some(128));
        assert_eq!(policy_budget(&args(&["stress"])).unwrap(), None);
        let err = policy_budget(&args(&["stress", "--policy-budget", "lots"])).unwrap_err();
        assert!(err.contains("--policy-budget"), "{err}");
    }

    #[test]
    fn reg_policy_survives_the_strict_oracle_from_the_cli() {
        let a = args(&[
            "stress", "--tasks", "6", "--rounds", "3", "--oracle", "--quiet",
        ]);
        let out = run_one(&a, &pol("reg.pol"), None).unwrap();
        assert_eq!(out.report.scheduler, "policy:reg");
        let o = out
            .report
            .chaos
            .as_ref()
            .and_then(|c| c.oracle.as_ref())
            .expect("oracle report");
        assert!(o.clean(), "policy:reg must match the reference scan: {o:?}");
        let p = out.report.policy.as_ref().expect("policy summary");
        assert!(!p.ejected);
    }

    #[test]
    fn starving_policy_is_ejected_but_the_cli_run_succeeds() {
        let a = args(&["stress", "--tasks", "6", "--rounds", "3", "--quiet"]);
        let out = run_one(&a, &pol("starve.pol"), None).unwrap();
        let p = out.report.policy.as_ref().expect("policy summary");
        assert!(p.ejected, "the watchdog must fire");
        assert_eq!(p.eject_reason, Some("starvation"));
    }
}
