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

/// `mq` on 300 CPUs and `bubble` on a 300-node tree need more queues
/// than a task's one-byte queue hint can name. Both front ends refuse
/// the shape with the same one-line error: exit 1 from the CLI — not a
/// panic (101), not a wrapped count and exit 0 — and a parse error from
/// a sweep spec.
#[test]
fn shapes_with_more_than_256_queues_are_rejected_by_both_front_ends() {
    for (sched, shape_flags, shape) in [
        ("mq", ["--cpus", "300"], "300P"),
        ("bubble", ["--topology", "300N1C1T"], "300N1C1T"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_elsc-sim"))
            .args([
                "stress", "--tasks", "900", "--rounds", "6", "--sched", sched,
            ])
            .args(shape_flags)
            .output()
            .expect("elsc-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sched}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{sched}: {stderr}");
        assert!(stderr.contains("at most 256"), "{sched}: {stderr}");
        let spec = format!("name = big\nworkload = stress\nsched = {sched}\nshape = {shape}");
        let err = spec.parse::<elsc_lab::SweepSpec>().unwrap_err();
        assert_eq!(format!("error: {err}\n"), stderr, "{sched}");
    }
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

/// One cell per workload: the flags on the left and the `CellConfig` on
/// the right describe the same run, so the reports must not differ by a
/// byte. Seed 23062 is the CLI's own default, passed by neither side.
#[test]
fn cli_reports_equal_the_equivalent_lab_cells() {
    let think = 60_000_000;
    let cases: [(&[&str], WorkloadCell); 6] = [
        (
            &["volano", "--rooms", "1", "--users", "4", "--messages", "2"],
            WorkloadCell::Volano {
                rooms: 1,
                users: 4,
                messages: 2,
                think,
            },
        ),
        (
            &["kbuild", "--jobs", "2", "--units", "6"],
            WorkloadCell::Kbuild { jobs: 2, units: 6 },
        ),
        (
            &[
                "httpd",
                "--clients",
                "6",
                "--workers",
                "2",
                "--requests",
                "2",
            ],
            WorkloadCell::Httpd {
                clients: 6,
                workers: 2,
                requests: 2,
            },
        ),
        (
            &["stress", "--tasks", "6", "--rounds", "3", "--burst", "9000"],
            WorkloadCell::Stress {
                tasks: 6,
                rounds: 3,
                burst: 9_000,
            },
        ),
        (&["rtmix"], WorkloadCell::RtMix),
        (
            &[
                "cluster",
                "--nodes",
                "2",
                "--dispatcher",
                "round-robin",
                "--rooms",
                "2",
                "--users",
                "4",
                "--messages",
                "2",
            ],
            WorkloadCell::Cluster {
                nodes: 2,
                dispatcher: DispatcherId::RoundRobin,
                rooms: 2,
                users: 4,
                messages: 2,
                think,
            },
        ),
    ];
    let dir = std::env::temp_dir().join(format!("elsc-cli-one-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (flags, workload) in cases {
        let path = dir.join(format!("{}.json", workload.name()));
        let mut args = flags.to_vec();
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
