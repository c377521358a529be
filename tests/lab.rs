//! Acceptance tests for the `elsc-lab` orchestrator (ISSUE PR 3):
//!
//! * a 2-worker sweep produces a manifest byte-identical to a 1-worker
//!   sweep (determinism is what makes parallel cells safe);
//! * a warm-cache re-run executes zero cells and produces the same
//!   bytes;
//! * `compare` flags an injected 10% regression at the default 5%
//!   threshold and passes on identical manifests.

use std::path::PathBuf;

use elsc_lab::{compare, run_sweep, Cache, RunOptions, SweepSpec};

/// A fresh, empty cache under the system temp dir.
fn tmp_cache(tag: &str) -> Cache {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("elsc-lab-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Cache::new(dir)
}

fn drop_cache(cache: &Cache) {
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// A small but multi-axis grid: 2 schedulers x 2 shapes x 2 seeds.
fn spec() -> SweepSpec {
    "name = itest\n\
     workload = volano\n\
     sched = reg, elsc\n\
     shape = UP, 2P\n\
     seed = 1, 2\n\
     rooms = 1\n users = 4\n messages = 2\n think = 0\n"
        .parse()
        .expect("spec parses")
}

#[test]
fn two_workers_match_one_worker_byte_for_byte() {
    let c1 = tmp_cache("one");
    let c2 = tmp_cache("two");
    let one = run_sweep(
        &spec(),
        &c1,
        &RunOptions {
            workers: 1,
            force: false,
        },
    );
    let two = run_sweep(
        &spec(),
        &c2,
        &RunOptions {
            workers: 2,
            force: false,
        },
    );
    assert!(one.ok() && two.ok());
    assert_eq!(one.executed, 8);
    assert_eq!(two.executed, 8);
    let m1 = one.manifest().expect("clean run has a manifest");
    let m2 = two.manifest().expect("clean run has a manifest");
    assert_eq!(m1, m2, "worker count must not change manifest bytes");
    drop_cache(&c1);
    drop_cache(&c2);
}

#[test]
fn warm_cache_executes_zero_cells_and_matches() {
    let cache = tmp_cache("warm");
    let cold = run_sweep(
        &spec(),
        &cache,
        &RunOptions {
            workers: 2,
            force: false,
        },
    );
    assert!(cold.ok());
    assert_eq!((cold.executed, cold.cached), (8, 0));

    let warm = run_sweep(
        &spec(),
        &cache,
        &RunOptions {
            workers: 2,
            force: false,
        },
    );
    assert!(warm.ok());
    assert_eq!(
        (warm.executed, warm.cached),
        (0, 8),
        "a warm re-run must execute nothing"
    );
    assert_eq!(cold.manifest().unwrap(), warm.manifest().unwrap());
    drop_cache(&cache);
}

#[test]
fn compare_passes_identical_and_flags_injected_regression() {
    let cache = tmp_cache("gate");
    let run = run_sweep(
        &spec(),
        &cache,
        &RunOptions {
            workers: 2,
            force: false,
        },
    );
    let manifest = run.manifest().unwrap();
    drop_cache(&cache);

    // Identical manifests pass at any threshold.
    let same = compare(&manifest, &manifest, 0.05).expect("well-formed manifests");
    assert!(
        same.ok(),
        "identical manifests must pass:\n{}",
        same.render(0.05)
    );
    assert_eq!(same.checked, 8);

    // Inject a 10% regression into one cell's cycles_per_schedule by
    // textual surgery on the baseline (shrink the baseline so the
    // unmodified current run looks 10% worse... easier the other way:
    // grow the current). Locate the first metric occurrence and scale it.
    let key = "\"cycles_per_schedule\":";
    let start = manifest.find(key).expect("metric present") + key.len();
    let end = start
        + manifest[start..]
            .find([',', '}'])
            .expect("number terminates");
    let old: f64 = manifest[start..end].parse().expect("metric is a number");
    let worse = format!("{}{}{}", &manifest[..start], old * 1.10, &manifest[end..]);
    let gated = compare(&worse, &manifest, 0.05).expect("well-formed manifests");
    assert!(
        !gated.ok(),
        "a 10% regression must fail the 5% gate:\n{}",
        gated.render(0.05)
    );
    assert_eq!(gated.regressions.len(), 1);
    assert_eq!(gated.regressions[0].metric, "cycles_per_schedule");
    assert!((gated.regressions[0].delta() - 0.10).abs() < 1e-6);

    // The same 10% growth passes a 15% threshold.
    assert!(compare(&worse, &manifest, 0.15).unwrap().ok());

    // A manifest missing a baseline cell fails even with no regressions.
    let id_key = "\"id\":\"";
    let idp = manifest.find(id_key).unwrap() + id_key.len();
    let ide = idp + manifest[idp..].find('"').unwrap();
    let renamed = manifest.replacen(&manifest[idp..ide], "somewhere-else", 1);
    let missing = compare(&renamed, &manifest, 0.05).unwrap();
    assert!(!missing.ok());
    assert_eq!(missing.missing.len(), 1);
    assert_eq!(missing.added.len(), 1);
}

#[test]
fn force_reexecutes_but_bytes_do_not_move() {
    let cache = tmp_cache("force");
    let cold = run_sweep(
        &spec(),
        &cache,
        &RunOptions {
            workers: 2,
            force: false,
        },
    );
    let forced = run_sweep(
        &spec(),
        &cache,
        &RunOptions {
            workers: 2,
            force: true,
        },
    );
    assert_eq!(forced.executed, 8, "--force must ignore cache hits");
    assert_eq!(cold.manifest().unwrap(), forced.manifest().unwrap());
    drop_cache(&cache);
}

/// The `gooch` builtin prints what the `elsc-bench` binary it replaced
/// printed: scheduler cycles per `sched_yield()` against the number of
/// runnable spinners, per design. The end points are that binary's
/// numbers at the commit that deleted it; the shapes are reference \[5\]'s
/// claim (the stock scan grows with n, a sorted queue does not).
#[test]
fn gooch_builtin_reproduces_the_deleted_binary() {
    let spec = SweepSpec::builtin("gooch").expect("gooch is a builtin");
    let cache = tmp_cache("gooch");
    let opts = RunOptions {
        workers: 2,
        force: false,
    };
    let run = run_sweep(&spec, &cache, &opts);
    assert!(run.ok(), "{:?}", run.failures);
    let per_yield = |sched: &str, tasks: u64| {
        let cell =
            run.select(|c| c.sched.label() == sched && c.workload.param("tasks") == Some(tasks));
        let m = &cell[0].metrics;
        (m.cycles_per_schedule * m.sched_calls as f64 / m.yields as f64).round()
    };
    assert_eq!(
        (per_yield("reg", 2), per_yield("reg", 512)),
        (1_368.0, 19_067.0)
    );
    assert_eq!(
        (per_yield("elsc", 2), per_yield("elsc", 512)),
        (1_444.0, 1_606.0)
    );
    for tasks in [2, 8, 32, 128, 512] {
        // On one CPU mq's single queue is reg's list.
        assert_eq!(per_yield("mq", tasks), per_yield("reg", tasks), "n={tasks}");
    }
    assert!(per_yield("reg", 512) >= 10.0 * per_yield("reg", 2));
    for sorted in ["elsc", "heap", "aheap"] {
        assert!(
            per_yield(sorted, 512) <= 1.2 * per_yield(sorted, 2),
            "{sorted} must stay flat"
        );
    }
    drop_cache(&cache);
}
