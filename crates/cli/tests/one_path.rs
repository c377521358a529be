//! The CLI builds machines through the lab's run description, not beside
//! it: `elsc-sim ls` lists exactly the scheduler registry, and a run's
//! report is byte-identical to executing the equivalent lab cell.

use std::process::Command;

use elsc_cluster::DispatcherId;
use elsc_lab::{execute_cell, CellConfig, ChaosSpec, SchedId, Shape, WorkloadCell};

fn elsc_sim(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_elsc-sim"))
        .args(args)
        .output()
        .expect("elsc-sim runs");
    assert!(
        out.status.success(),
        "elsc-sim {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `mq` on 300 CPUs and `bubble` on a 300-node tree keep more queues
/// than a one-byte queue hint could name; the two-byte `rq_hint` names
/// them all. Both front ends run the shape to completion with a clean
/// oracle — exit 0 from the CLI, a clean cell from a sweep spec — and
/// give the same report bytes.
#[test]
fn shapes_with_more_than_256_queues_run_clean_on_both_front_ends() {
    let dir = std::env::temp_dir().join(format!("elsc-cli-300-queues-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (sched, shape_flags, shape) in [
        ("mq", ["--cpus", "300"], "300P"),
        ("bubble", ["--topology", "300N1C1T"], "300N1C1T"),
    ] {
        let path = dir.join(format!("{sched}.json"));
        let mut args = vec![
            "stress", "--tasks", "600", "--rounds", "1", "--sched", sched,
        ];
        args.extend(shape_flags);
        args.extend([
            "--oracle",
            "--quiet",
            "--report-json",
            path.to_str().unwrap(),
        ]);
        elsc_sim(&args);
        let spec = format!(
            "name = big\nworkload = stress\nsched = {sched}\nshape = {shape}\n\
             tasks = 600\nrounds = 1\nseed = 23062\noracle = on"
        );
        let cells = spec.parse::<elsc_lab::SweepSpec>().unwrap().cells();
        assert_eq!(cells.len(), 1, "{sched}");
        let lab = execute_cell(&cells[0]).expect("the cell runs clean");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            lab.report_json,
            "{sched}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag the named workload does not take is refused, not ignored:
/// each of these exited 0 and ran without it. The CLI exits 1 with one
/// line, and a spec naming the same key for the same workload fails to
/// parse with the same words.
#[test]
fn a_flag_the_workload_does_not_take_is_refused_by_both_front_ends() {
    for (args, key) in [
        ("kbuild --jobs 2 --units 6 --rooms 5", "rooms = 5"),
        ("kbuild --jobs 2 --units 6 --rooms 0", "rooms = 0"),
        ("stress --tasks 2 --rounds 1 --clients 9", "clients = 9"),
        (
            "volano --rooms 1 --users 2 --messages 1 --nodes 3",
            "nodes = 3",
        ),
        (
            "volano --rooms 1 --users 2 --messages 1 --dispatcher bogus",
            "dispatcher = bogus",
        ),
        (
            "httpd --clients 2 --workers 1 --requests 1 --epoch 0",
            "epoch = 0",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_elsc-sim"))
            .args(args.split_whitespace())
            .output()
            .expect("elsc-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let workload = args.split_whitespace().next().unwrap();
        let spec = format!("name = x\nworkload = {workload}\n{key}");
        let err = spec.parse::<elsc_lab::SweepSpec>().unwrap_err();
        assert_eq!(format!("error: {err}\n"), stderr, "{args:?}");
        assert!(err.contains(key.split(' ').next().unwrap()) && err.contains(workload));
    }
}

/// A CPU count that wraps or could not be allocated is refused up front
/// with one line naming the bad text and exit 1: the `4294967296²` tree
/// used to wrap to 0 CPUs and panic (101), `1000N1000C1000T` and
/// `--cpus 100000000000` to abort on a multi-gigabyte allocation (134),
/// and `--cpus 0` to run silently as 1P. The same holds for a lock plan
/// with more shards than CPUs and a cluster with more CPUs in total
/// (both aborted on their allocation), and for a zero-sized workload
/// (its builder's assert panicked). A spec takes the same checks
/// (`spec::tests::rejects_malformed_specs`), so the error comes at parse
/// time, not from a pool worker.
#[test]
fn cpu_counts_that_overflow_or_cannot_be_allocated_are_rejected() {
    for (args, bad) in [
        (
            "volano --topology 4294967296N4294967296C1T",
            "4294967296N4294967296C1T",
        ),
        ("volano --topology 1000N1000C1000T", "1000N1000C1000T"),
        ("volano --cpus 100000000000", "--cpus 100000000000"),
        ("volano --cpus 0", "--cpus 0"),
        ("volano --rooms 0", "--rooms 0"),
        ("volano --messages 0", "--messages 0"),
        ("httpd --clients 0", "--clients 0"),
        ("httpd --workers 0", "--workers 0"),
        (
            "volano --cpus 2 --lock-plan sharded:99999999999",
            "sharded:99999999999",
        ),
        ("cluster --nodes 99999999999", "--nodes 99999999999"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_elsc-sim"))
            .args(args.split_whitespace())
            .output()
            .expect("elsc-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(bad),
            "{args:?}: {stderr}"
        );
    }
    let spec = "name = big\nworkload = stress\nsched = elsc\nshape = 4294967296N4294967296C1T";
    let err = spec.parse::<elsc_lab::SweepSpec>().unwrap_err();
    assert!(
        err.to_string().contains("4294967296N4294967296C1T"),
        "{err}"
    );
}

/// `--trace-out` onto a device that takes no bytes: the report still
/// prints, and the lost lines are the exit code — not a truncated file
/// and exit 0.
#[test]
fn a_trace_file_that_lost_lines_fails_the_run() {
    if !std::path::Path::new("/dev/full").exists() {
        return; // no such device on this platform
    }
    let out = Command::new(env!("CARGO_BIN_EXE_elsc-sim"))
        .args(["volano", "--up", "--sched", "elsc", "--rooms", "1"])
        .args(["--users", "4", "--messages", "2"])
        .args(["--trace-out", "/dev/full"])
        .output()
        .expect("elsc-sim runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stdout.contains("sched: calls="), "report printed: {stdout}");
    let line = stderr.lines().last().unwrap_or_default();
    assert!(
        line.starts_with("error: --trace-out /dev/full: ")
            && line.ends_with(" trace record(s) were not written"),
        "{stderr}"
    );
}

/// The same run with somewhere to write exits 0 and drops nothing — with
/// and without a `--trace N` ring small enough to overflow, which is the
/// ring's design and no error.
#[test]
fn a_trace_file_that_took_every_line_does_not() {
    let dir = std::env::temp_dir().join(format!("elsc-trace-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, report) = (dir.join("t.jsonl"), dir.join("r.json"));
    for ring in [&[][..], &["--trace", "4"]] {
        elsc_sim(
            &[
                &["volano", "--up", "--sched", "elsc", "--rooms", "1"][..],
                &["--users", "4", "--messages", "2", "--quiet"],
                &["--trace-out", trace.to_str().unwrap()],
                &["--report-json", report.to_str().unwrap()],
                ring,
            ]
            .concat(),
        );
        let json = std::fs::read_to_string(&report).unwrap();
        assert_eq!(json.contains("\"trace_dropped\":0"), ring.is_empty());
        assert!(std::fs::read_to_string(&trace).unwrap().lines().count() > 100);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ls_lists_exactly_the_registry_rows() {
    let text = elsc_sim(&["ls"]);
    let listed: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("native schedulers"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    let registry: Vec<String> = SchedId::NATIVE
        .iter()
        .map(|id| format!("  {:<10} {}", id.label(), id.describe()))
        .collect();
    assert_eq!(listed, registry);
    // The workload rows are the workload registry, and `--help` names
    // every workload and its flags too.
    let listed: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "workloads:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    let registry: Vec<String> = WorkloadCell::ALL
        .iter()
        .map(|w| format!("  {:<10} {}", w.name(), w.describe()))
        .collect();
    assert_eq!(listed, registry);
    let help = elsc_sim(&["--help"]);
    for w in WorkloadCell::ALL {
        assert!(help.contains(w.describe()), "{}", w.name());
        for (k, _) in w.params() {
            assert!(help.contains(&format!("--{k} ")), "--{k}");
        }
    }
}

/// The experiments that used to be `elsc-bench` binaries are lab
/// builtins with a renderer: `lab ls` sizes them, `lab render` of an
/// unknown name offers them, and `lab render gooch` prints the table
/// from a sweep it can then replay from the cache byte for byte.
#[test]
fn the_former_bench_binaries_are_lab_renders() {
    let ls = elsc_sim(&["lab", "ls"]);
    for (name, cells) in [("contention", 27), ("gooch", 25), ("latency", 10)] {
        let row = ls.lines().find(|l| l.starts_with(name));
        let row = row.unwrap_or_else(|| panic!("lab ls has no {name} row:\n{ls}"));
        assert_eq!(row.split_whitespace().nth(1), Some(&*cells.to_string()));
    }
    let out = Command::new(env!("CARGO_BIN_EXE_elsc-sim"))
        .args(["lab", "render", "figure9"])
        .output()
        .expect("elsc-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("kernel_share, contention, gooch, latency"),
        "{stderr}"
    );

    let dir = std::env::temp_dir().join(format!("elsc-cli-gooch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cache, out) = (dir.join("cache"), dir.join("gooch.json"));
    let render = || {
        let args = ["lab", "render", "gooch", "--workers", "2"];
        let paths = ["--cache-dir", cache.to_str().unwrap()];
        let text = elsc_sim(&[&args[..], &paths, &["--out", out.to_str().unwrap()]].concat());
        // Below the two status lines the table is a pure view of the run.
        let table = text.split_once("\n\n").expect("status, blank, table").1;
        (text.lines().next().unwrap().to_string(), table.to_string())
    };
    let (cold_status, cold) = render();
    let (warm_status, warm) = render();
    assert!(
        cold_status.contains("25 executed, 0 cached"),
        "{cold_status}"
    );
    assert!(
        warm_status.contains("0 executed, 25 cached"),
        "{warm_status}"
    );
    assert_eq!(cold, warm);
    let row = |sched: &str| {
        let line = cold.lines().find(|l| l.starts_with(sched)).unwrap();
        line.split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        row("reg")[1..],
        ["1368", "1541", "2296", "5417", "19067", "13.9"]
    );
    assert_eq!(
        row("elsc")[1..],
        ["1444", "1556", "1594", "1604", "1606", "1.1"]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One cell per registry workload: the flags built from the cell's own
/// parameters and the `CellConfig` itself describe the same run, so the
/// reports must not differ by a byte. Every parameter is shrunk to at
/// most 3 (a non-default `--think`), a cluster takes a non-default
/// dispatcher, and a workload added to the registry is covered by
/// construction. Seed 23062 is the CLI's own default, passed by neither
/// side.
#[test]
fn cli_reports_equal_the_equivalent_lab_cells() {
    let dir = std::env::temp_dir().join(format!("elsc-cli-one-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for mut workload in WorkloadCell::ALL {
        let mut args = vec![workload.name().to_string()];
        for (k, v) in workload.params() {
            workload.set(k, v.min(3)).unwrap();
            args.extend([format!("--{k}"), v.min(3).to_string()]);
        }
        if let WorkloadCell::Cluster { dispatcher, .. } = &mut workload {
            *dispatcher = DispatcherId::RoundRobin;
            args.extend(["--dispatcher".into(), "round-robin".into()]);
        }
        let path = dir.join(format!("{}.json", workload.name()));
        let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
        args.extend(["--sched", "elsc", "--cpus", "2", "--oracle", "--quiet"]);
        args.extend(["--report-json", path.to_str().unwrap()]);
        elsc_sim(&args);
        let cell = CellConfig {
            sched: SchedId::Elsc,
            shape: Shape::Smp(2),
            lock_plan: None,
            seed: 23_062,
            workload,
            chaos: ChaosSpec {
                oracle: true,
                ..ChaosSpec::default()
            },
        };
        let lab = execute_cell(&cell).expect("the cell runs clean");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            lab.report_json,
            "{}",
            cell.id()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `lab render NAME --spec-file PATH` prints NAME's table over the file's
/// grid (a paper-length recipe, say) instead of builtin NAME's.
#[test]
fn render_takes_its_grid_from_a_spec_file() {
    let dir = std::env::temp_dir().join(format!("elsc-cli-render-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("gooch.spec");
    let grid = "name = gooch-short\nworkload = stress\nsched = reg, elsc\nshape = UP\n";
    std::fs::write(
        &spec,
        format!("{grid}tasks = 2, 8\nrounds = 4\nburst = 200\n"),
    )
    .unwrap();
    let text = elsc_sim(
        &[
            &["lab", "render", "gooch", "--workers", "2"][..],
            &["--spec-file", spec.to_str().unwrap()],
            &["--cache-dir", dir.join("cache").to_str().unwrap()],
            &["--out", dir.join("m.json").to_str().unwrap()],
        ]
        .concat(),
    );
    assert!(text.starts_with("sweep gooch-short: 4 cells"), "{text}");
    let table = text.split_once("\n\n").expect("status, blank, table").1;
    assert!(table.contains("n=8") && !table.contains("n=32"), "{table}");
    std::fs::remove_dir_all(&dir).unwrap();
}
