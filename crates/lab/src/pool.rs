//! The sweep executor: a work-stealing pool of `std::thread` workers.
//!
//! The coordinator pre-scans the cache, queues only dirty cells, and
//! lets `workers` threads race down the queue via a shared atomic index
//! — a worker that finishes a short cell immediately "steals" the next
//! unclaimed one, so long cells never serialize behind short ones.
//! Results land in per-cell slots indexed by queue position, so the
//! assembled outcome is in canonical cell order **regardless of worker
//! count or completion order** — the byte-identical-manifest guarantee.
//!
//! Workers execute cells under `catch_unwind`: one panicking cell
//! becomes a [`CellError::Panic`] for that cell instead of tearing down
//! the sweep, and the sweep's exit status reflects it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cache::Cache;
use crate::cell::{execute_cell, CellConfig, CellError, Metrics};
use crate::jsonv::Value;
use crate::manifest::{cell_record, manifest, metrics_from_record};
use crate::spec::SweepSpec;

/// How a sweep should run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Ignore cache hits and re-execute every cell.
    pub force: bool,
}

impl Default for RunOptions {
    /// One worker, cache honoured.
    fn default() -> RunOptions {
        RunOptions {
            workers: 1,
            force: false,
        }
    }
}

/// One successfully completed (executed or cache-loaded) cell.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell's configuration.
    pub cell: CellConfig,
    /// Its manifest record (the cached bytes, or freshly rendered —
    /// identical either way).
    pub record: String,
    /// The extracted metric set.
    pub metrics: Metrics,
    /// Whether the record came from the cache.
    pub from_cache: bool,
}

/// The outcome of one sweep: per-cell results in canonical cell order,
/// plus execution statistics (which never enter the manifest).
#[derive(Debug)]
pub struct SweepRun {
    /// The expanded spec.
    pub spec: SweepSpec,
    /// Successful cells, in canonical cell order.
    pub outcomes: Vec<CellOutcome>,
    /// Failed cells with their errors, in canonical cell order.
    pub failures: Vec<(CellConfig, CellError)>,
    /// Cells actually executed this run.
    pub executed: usize,
    /// Cells served from the cache.
    pub cached: usize,
}

impl SweepRun {
    /// Whether every cell succeeded.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Assembles the manifest. `None` if any cell failed — a partial
    /// manifest would silently pass `compare`, so none is written.
    pub fn manifest(&self) -> Option<String> {
        if !self.ok() {
            return None;
        }
        Some(manifest(
            &self.spec,
            self.outcomes.iter().map(|o| o.record.clone()).collect(),
        ))
    }

    /// The successful outcomes matching a predicate, in canonical cell
    /// order — the table renderers' query primitive.
    pub fn select(&self, f: impl Fn(&CellConfig) -> bool) -> Vec<&CellOutcome> {
        self.outcomes.iter().filter(|o| f(&o.cell)).collect()
    }

    /// Seed-aggregated metric for the cells matching `f`: the matching
    /// cells' metric values in seed order, reduced by the paper's
    /// discard-first-then-mean rule. Panics if nothing matches (a bug in
    /// the caller's query, not a data condition).
    pub fn seed_mean(
        &self,
        f: impl Fn(&CellConfig) -> bool,
        metric: impl Fn(&Metrics) -> f64,
    ) -> f64 {
        let samples: Vec<f64> = self.select(f).iter().map(|o| metric(&o.metrics)).collect();
        assert!(!samples.is_empty(), "seed_mean: no cells matched");
        crate::discard_first_mean(&samples)
    }
}

/// What executing one cell yields: its manifest record and metrics, or
/// the error that stopped it.
type CellOutput = Result<(String, Metrics), CellError>;

/// Runs `spec` against `cache` with `opts`. Cache hits are loaded
/// without executing; dirty cells run on the worker pool and their
/// records are stored back. Never panics on cell failure — failures are
/// collected in the returned [`SweepRun`].
pub fn run_sweep(spec: &SweepSpec, cache: &Cache, opts: &RunOptions) -> SweepRun {
    let cells = spec.cells();
    let workers = opts.workers.max(1);

    // Phase 1: cache scan. `slots[i]` carries cell i's final state.
    enum Slot {
        Hit(String, Metrics),
        Dirty,
        Done(CellOutput),
    }
    let mut slots: Vec<Slot> = Vec::with_capacity(cells.len());
    let mut dirty: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let hit = if opts.force {
            None
        } else {
            cache.lookup(cell).and_then(|record| {
                // A record that no longer parses (truncated file, format
                // drift) is treated as dirty, not fatal.
                let v = Value::parse(&record).ok()?;
                let m = metrics_from_record(&v).ok()?;
                Some((record, m))
            })
        };
        match hit {
            Some((record, m)) => slots.push(Slot::Hit(record, m)),
            None => {
                dirty.push(i);
                slots.push(Slot::Dirty);
            }
        }
    }

    // Phase 2: execute dirty cells on the pool. The shared `next` index
    // is the work-stealing queue: each worker claims the next unclaimed
    // cell the instant it goes idle.
    let executed = dirty.len();
    if !dirty.is_empty() {
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<CellOutput>>> =
            dirty.iter().map(|_| Mutex::new(None)).collect();
        let nworkers = workers.min(dirty.len());
        std::thread::scope(|scope| {
            for _ in 0..nworkers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = dirty.get(k) else { break };
                    let cell = &cells[i];
                    let out = catch_unwind(AssertUnwindSafe(|| execute_cell(cell)))
                        .unwrap_or_else(|payload| Err(CellError::Panic(panic_message(payload))))
                        .map(|r| (cell_record(cell, &r), r.metrics));
                    *results[k].lock().unwrap() = Some(out);
                });
            }
        });
        for (k, &i) in dirty.iter().enumerate() {
            let out = results[k]
                .lock()
                .unwrap()
                .take()
                .expect("worker pool filled every slot");
            if let Ok((record, _)) = &out {
                // Best-effort: a read-only cache dir degrades to
                // cache-less operation, it does not fail the sweep.
                let _ = cache.store(&cells[i], record);
            }
            slots[i] = Slot::Done(out);
        }
    }

    // Phase 3: assemble in canonical cell order.
    let mut run = SweepRun {
        spec: spec.clone(),
        outcomes: Vec::new(),
        failures: Vec::new(),
        executed,
        cached: cells.len() - executed,
    };
    for (cell, slot) in cells.into_iter().zip(slots) {
        match slot {
            Slot::Hit(record, metrics) => run.outcomes.push(CellOutcome {
                cell,
                record,
                metrics,
                from_cache: true,
            }),
            Slot::Done(Ok((record, metrics))) => run.outcomes.push(CellOutcome {
                cell,
                record,
                metrics,
                from_cache: false,
            }),
            Slot::Done(Err(e)) => run.failures.push((cell, e)),
            Slot::Dirty => unreachable!("dirty cells are always executed"),
        }
    }
    run
}

/// Renders a panic payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpcache(tag: &str) -> Cache {
        let d: PathBuf =
            std::env::temp_dir().join(format!("elsc-lab-pool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        Cache::new(d)
    }

    fn spec() -> SweepSpec {
        "name = pool\n workload = volano\n sched = reg, elsc\n shape = UP, 2P\n seed = 1\n\
         rooms = 1\n users = 4\n messages = 2\n think = 0\n"
            .parse()
            .unwrap()
    }

    #[test]
    fn worker_count_does_not_change_the_manifest() {
        let spec = spec();
        let c1 = tmpcache("w1");
        let c2 = tmpcache("w2");
        let one = run_sweep(
            &spec,
            &c1,
            &RunOptions {
                workers: 1,
                force: false,
            },
        );
        let four = run_sweep(
            &spec,
            &c2,
            &RunOptions {
                workers: 4,
                force: false,
            },
        );
        assert!(one.ok() && four.ok());
        assert_eq!(one.manifest().unwrap(), four.manifest().unwrap());
        assert_eq!(one.executed, 4);
        let _ = std::fs::remove_dir_all(c1.dir());
        let _ = std::fs::remove_dir_all(c2.dir());
    }

    #[test]
    fn worker_count_does_not_change_a_cluster_manifest() {
        // The tentpole invariant at the lab tier: a federated sweep's
        // merged reports are byte-identical no matter how many workers
        // executed the cells.
        let spec: SweepSpec = "name = clpool\n workload = cluster\n sched = elsc\n shape = 2P\n\
             seed = 1\n dispatcher = least-loaded, locality\n nodes = 2\n\
             rooms = 2\n users = 4\n messages = 2\n think = 0\n"
            .parse()
            .unwrap();
        let c1 = tmpcache("clw1");
        let c2 = tmpcache("clw4");
        let one = run_sweep(
            &spec,
            &c1,
            &RunOptions {
                workers: 1,
                force: false,
            },
        );
        let four = run_sweep(
            &spec,
            &c2,
            &RunOptions {
                workers: 4,
                force: false,
            },
        );
        assert!(one.ok() && four.ok());
        assert_eq!(one.manifest().unwrap(), four.manifest().unwrap());
        assert_eq!(one.executed, 2);
        let _ = std::fs::remove_dir_all(c1.dir());
        let _ = std::fs::remove_dir_all(c2.dir());
    }

    #[test]
    fn warm_cache_executes_nothing_and_matches() {
        let spec = spec();
        let cache = tmpcache("warm");
        let cold = run_sweep(&spec, &cache, &RunOptions::default());
        assert_eq!((cold.executed, cold.cached), (4, 0));
        let warm = run_sweep(&spec, &cache, &RunOptions::default());
        assert_eq!((warm.executed, warm.cached), (0, 4));
        assert!(warm.outcomes.iter().all(|o| o.from_cache));
        assert_eq!(cold.manifest().unwrap(), warm.manifest().unwrap());
        // Force re-executes everything.
        let forced = run_sweep(
            &spec,
            &cache,
            &RunOptions {
                workers: 2,
                force: true,
            },
        );
        assert_eq!((forced.executed, forced.cached), (4, 0));
        assert_eq!(forced.manifest().unwrap(), cold.manifest().unwrap());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn failures_are_collected_not_fatal() {
        // A watchdog-doomed stress spec.
        let spec: SweepSpec = "name = f\n workload = stress\n sched = reg\n shape = UP\n\
             seed = 1\n tasks = 4\n rounds = 4000000000\n burst = 4000000000\n"
            .parse()
            .unwrap();
        let cache = tmpcache("fail");
        let run = run_sweep(&spec, &cache, &RunOptions::default());
        assert!(!run.ok());
        assert_eq!(run.failures.len(), 1);
        assert!(run.manifest().is_none(), "no partial manifests");
        // Failures are not cached: a re-run tries again.
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_cache_record_is_treated_as_dirty() {
        let spec = spec();
        let cache = tmpcache("corrupt");
        let cold = run_sweep(&spec, &cache, &RunOptions::default());
        // Truncate one record.
        let victim = &cold.outcomes[0].cell;
        cache.store(victim, "{\"id\":").unwrap();
        let run = run_sweep(&spec, &cache, &RunOptions::default());
        assert_eq!((run.executed, run.cached), (1, 3));
        assert_eq!(run.manifest().unwrap(), cold.manifest().unwrap());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn seed_mean_discards_first() {
        let spec: SweepSpec = "name = s\n workload = volano\n sched = elsc\n shape = UP\n\
             seed = 1, 2, 3\n rooms = 1\n users = 4\n messages = 2\n think = 0\n"
            .parse()
            .unwrap();
        let cache = tmpcache("seedmean");
        let run = run_sweep(
            &spec,
            &cache,
            &RunOptions {
                workers: 3,
                force: false,
            },
        );
        assert!(run.ok());
        let all = run.select(|_| true);
        assert_eq!(all.len(), 3);
        let expect = (all[1].metrics.throughput + all[2].metrics.throughput) / 2.0;
        let got = run.seed_mean(|_| true, |m| m.throughput);
        assert!((got - expect).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
