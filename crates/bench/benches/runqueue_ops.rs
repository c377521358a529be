//! Host-time cost of the four run-queue manipulation functions.
//!
//! ELSC replaces a single-list insert with an indexed table insert; the
//! paper's design goal is that this must not make add/del slower in any
//! meaningful way ("maintain existing performance for light loads").

use elsc_bench::harness::{BenchmarkId, Criterion};
use elsc_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use elsc_bench::rig::Rig;
use elsc_bench::SchedKind;
use elsc_ktask::{MmId, TaskSpec};
use elsc_sched_api::SchedConfig;

fn add_del(c: &mut Criterion) {
    let mut group = c.benchmark_group("runqueue_add_del");
    for &depth in &[10usize, 1000] {
        for kind in SchedKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.label(), depth),
                &depth,
                |b, &depth| {
                    let mut rig = Rig::new(kind.clone(), SchedConfig::up(), depth);
                    let probe = rig.tasks.spawn(&TaskSpec::named("probe").mm(MmId(1)));
                    b.iter(|| {
                        rig.add(black_box(probe));
                        rig.del(black_box(probe));
                    });
                },
            );
        }
    }
    group.finish();
}

fn move_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("runqueue_move");
    for kind in [SchedKind::Reg, SchedKind::Elsc] {
        group.bench_function(BenchmarkId::new(kind.label(), 100), |b| {
            let mut rig = Rig::new(kind.clone(), SchedConfig::up(), 100);
            let probe = rig.tasks.spawn(&TaskSpec::named("probe").mm(MmId(1)));
            rig.add(probe);
            b.iter(|| {
                let mut ctx = elsc_sched_api::SchedCtx {
                    tasks: &mut rig.tasks,
                    stats: &mut rig.stats,
                    meter: &mut rig.meter,
                    costs: &rig.costs,
                    cfg: &rig.cfg,
                    probe: None,
                    locks: None,
                };
                rig.sched.move_last_runqueue(&mut ctx, black_box(probe));
                rig.sched.move_first_runqueue(&mut ctx, black_box(probe));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, add_del, move_ops);
criterion_main!(benches);
