//! Acceptance tests for the `elsc-lab` orchestrator (ISSUE PR 3):
//!
//! * a 2-worker sweep produces a manifest byte-identical to a 1-worker
//!   sweep (determinism is what makes parallel cells safe);
//! * a warm-cache re-run executes zero cells and produces the same
//!   bytes;
//! * `compare` flags an injected 10% regression at the default 5%
//!   threshold and passes on identical manifests;
//! * no mutation of a committed manifest makes the reader panic or
//!   overflow its stack, and a cache record that does not parse is a
//!   dirty cell, never an aborted sweep.

use std::path::PathBuf;

use elsc_lab::jsonv::Value;
use elsc_lab::{compare, run_sweep, Cache, RunOptions, SweepSpec};
use elsc_simcore::SimRng;

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

/// `[[[…]]]` nested `n` deep.
fn deep_array(n: usize) -> String {
    format!("{}{}", "[".repeat(n), "]".repeat(n))
}

/// Whether `e` ends in the reader's position suffix, `at byte N`.
fn names_byte_offset(e: &str) -> bool {
    e.rsplit_once("at byte ")
        .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// 20 000 `SimRng` mutations of a committed manifest — truncations, byte
/// flips, splices and deep nesting, one to three per case — through the
/// reader and the compare gate. Nothing panics or overflows the stack;
/// every reader error names the byte offset it stopped at, and so does
/// every compare error that comes from the reader (the others name the
/// missing key of a manifest that parsed). The manifest is
/// `BENCH_engine.json` cut to its first cell, to keep the debug-build
/// test quick.
#[test]
fn mutated_manifests_are_errors_with_offsets_never_panics() {
    let full = include_str!("../BENCH_engine.json");
    let base = &format!("{}]}}", &full[..full.find(",{\"id\":").unwrap()]);
    assert_eq!(compare(base, base, 0.05).unwrap().checked, 1);
    let mut rng = SimRng::new(0x1500_F022);
    let below = |rng: &mut SimRng, n: usize| rng.below(n.max(1) as u64) as usize;
    let (mut parsed, mut failed) = (0, 0);
    for case in 0..20_000 {
        let mut text = base.as_bytes().to_vec();
        for _ in 0..1 + below(&mut rng, 3) {
            let at = below(&mut rng, text.len() + 1);
            match below(&mut rng, 4) {
                0 => text.truncate(at),
                1 if at < text.len() => text[at] = rng.below(256) as u8,
                2 => {
                    let from = below(&mut rng, text.len());
                    let len = below(&mut rng, 64).min(text.len() - from);
                    let chunk = text[from..from + len].to_vec();
                    text.splice(at..at, chunk);
                }
                _ => {
                    let depth = if case % 1000 == 0 {
                        200_000
                    } else {
                        below(&mut rng, 400)
                    };
                    let open = if rng.chance(0.5) { "[" } else { "{\"k\":" };
                    text.splice(at..at, open.repeat(depth).into_bytes());
                }
            }
        }
        let text = String::from_utf8_lossy(&text);
        match Value::parse(&text) {
            Ok(_) => parsed += 1,
            Err(e) => {
                failed += 1;
                assert!(names_byte_offset(&e), "case {case}: {e}");
            }
        }
        if let Err(e) = compare(&text, base, 0.05) {
            assert!(
                names_byte_offset(&e) || !e.contains("manifest: "),
                "case {case}: {e}"
            );
        }
    }
    assert!(
        parsed > 0 && failed > 10_000,
        "{parsed} parsed, {failed} failed"
    );
}

/// A cache record replaced by an array nested 200 000 deep is a record
/// that does not parse: its cell runs again, every other cell is a hit,
/// and the manifest keeps its bytes.
#[test]
fn deeply_nested_cache_record_reruns_its_cell() {
    let cache = tmp_cache("deep");
    let opts = RunOptions {
        workers: 1,
        force: false,
    };
    let cold = run_sweep(&spec(), &cache, &opts);
    assert!(cold.ok());
    let cell = &cold.outcomes[3].cell;
    let record = cache.dir().join(format!("{}.json", Cache::key(cell)));
    assert!(record.is_file(), "the cache keeps one file per cell");
    std::fs::write(&record, deep_array(200_000)).unwrap();

    let warm = run_sweep(&spec(), &cache, &opts);
    assert!(warm.ok());
    assert_eq!((warm.executed, warm.cached), (1, 7));
    assert!(!warm.outcomes[3].from_cache);
    assert_eq!(cold.manifest().unwrap(), warm.manifest().unwrap());
    drop_cache(&cache);
}
