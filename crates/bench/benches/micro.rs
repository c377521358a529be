//! Host nanoseconds of the scheduler operations `benchmark/` has no
//! probe for (`cargo bench -p elsc-bench`).
//!
//! The committed, gated host-clock numbers are `benchmark/run.sh`'s:
//! `schedule()` for reg and elsc at 64 and 1 000 runnable and the counter
//! recalculation are probed there and not repeated here. What is left is
//! the paper's small print — `goodness()` is cheap per call and the
//! baseline's problem is the multiplication by n (§3.3.2); the table
//! insert must not make add/del slower than the list insert (§5) — and
//! the §8 question of what one `schedule()` costs in every design.

use std::hint::black_box;
use std::time::Instant;

use elsc::index_for;
use elsc_bench::rig::Rig;
use elsc_bench::SchedKind;
use elsc_ktask::{MmId, TaskSpec, TaskTable};
use elsc_sched_api::{goodness, SchedConfig};

/// Timed batches per probe; the median is printed.
const BATCHES: usize = 5;

/// Times `ops` calls of `op`, [`BATCHES`] times over, and prints the
/// median batch as nanoseconds per call.
fn ns_per_op(name: &str, ops: u32, mut op: impl FnMut()) {
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ops {
                op();
            }
            start.elapsed().as_nanos() as f64 / f64::from(ops)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    println!("micro  {name:<28} {:>10.1} ns/op", samples[BATCHES / 2]);
}

fn main() {
    let mut tasks = TaskTable::new();
    let tid = tasks.spawn(&TaskSpec::named("t").mm(MmId(3)));
    tasks.task_mut(tid).counter = 11;
    let task = tasks.task(tid);
    ns_per_op("goodness_eval", 1_000_000, || {
        black_box(goodness(black_box(task), black_box(0), black_box(MmId(3))));
    });
    ns_per_op("elsc_index_for", 1_000_000, || {
        black_box(index_for(black_box(task)));
    });

    for kind in SchedKind::ALL {
        let label = kind.label();
        for depth in [10, 1000] {
            let mut rig = Rig::new(kind.clone(), SchedConfig::up(), depth);
            let probe = rig.tasks.spawn(&TaskSpec::named("probe").mm(MmId(1)));
            ns_per_op(&format!("add_del/{label}/{depth}"), 100_000, || {
                rig.add(black_box(probe));
                rig.del(black_box(probe));
            });
            rig.add(probe);
            // The heaps keep no list to move within.
            if rig.tasks.task(probe).in_list() {
                ns_per_op(&format!("move_last_first/{label}/{depth}"), 100_000, || {
                    rig.call(|s, ctx| {
                        s.move_last_runqueue(ctx, black_box(probe));
                        s.move_first_runqueue(ctx, black_box(probe));
                    });
                });
            }
        }
        for n in [50, 1000] {
            let mut rig = Rig::new(kind.clone(), SchedConfig::smp(4), n);
            ns_per_op(&format!("schedule/{label}/{n}"), 20_000, || {
                black_box(rig.schedule_once());
            });
        }
    }
}
