//! Ablation across all four scheduler designs (reg, elsc, heap, mq).
//!
//! The paper's §8 asks whether a heap or a multi-queue design would serve
//! better. This bench compares the host cost of one `schedule()` call at
//! two run-queue depths for every design, plus a short end-to-end
//! simulated VolanoMark slice to compare whole-system behaviour.

use elsc_bench::harness::{BenchmarkId, Criterion};
use elsc_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use elsc_bench::rig::Rig;
use elsc_bench::{SchedKind, Shape};
use elsc_workloads::volanomark::{self, VolanoConfig};

fn schedule_all_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_schedule");
    for &n in &[50usize, 1000] {
        for kind in SchedKind::ALL {
            group.bench_with_input(BenchmarkId::new(kind.label(), n), &n, |b, &n| {
                let mut rig = Rig::new(kind.clone(), elsc_sched_api::SchedConfig::smp(4), n);
                b.iter(|| black_box(rig.schedule_once()));
            });
        }
    }
    group.finish();
}

fn volano_slice_all_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_volano_slice");
    group.sample_size(10);
    let cfg = VolanoConfig {
        rooms: 2,
        users_per_room: 8,
        messages_per_user: 3,
        ..VolanoConfig::default()
    };
    for kind in SchedKind::ALL {
        group.bench_function(kind.label(), |b| {
            b.iter(|| {
                let shape = Shape::Smp(2);
                let report = volanomark::run(shape.machine(), kind.build(shape.topology()), &cfg);
                black_box(report.elapsed)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, schedule_all_designs, volano_slice_all_designs);
criterion_main!(benches);
