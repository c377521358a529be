//! Host-time latency of one `schedule()` call vs run-queue length.
//!
//! The paper's core claim in microbenchmark form: the baseline's decision
//! time is O(n) in the number of runnable tasks, ELSC's is O(1). Criterion
//! measures the real (host) cost of the algorithms; the simulated-cycle
//! figures come from the `figure*` binaries.

use elsc_bench::harness::{BenchmarkId, Criterion};
use elsc_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use elsc_bench::rig::Rig;
use elsc_bench::SchedKind;
use elsc_sched_api::SchedConfig;

fn schedule_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_latency");
    for &n in &[10usize, 100, 500, 1000, 2000] {
        for kind in [SchedKind::Reg, SchedKind::Elsc] {
            group.bench_with_input(BenchmarkId::new(kind.label(), n), &n, |b, &n| {
                let mut rig = Rig::new(kind.clone(), SchedConfig::up(), n);
                b.iter(|| black_box(rig.schedule_once()));
            });
        }
    }
    group.finish();
}

fn schedule_latency_smp(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_latency_smp4");
    for &n in &[100usize, 1000] {
        for kind in [SchedKind::Reg, SchedKind::Elsc] {
            group.bench_with_input(BenchmarkId::new(kind.label(), n), &n, |b, &n| {
                let mut rig = Rig::new(kind.clone(), SchedConfig::smp(4), n);
                b.iter(|| black_box(rig.schedule_once()));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, schedule_latency, schedule_latency_smp);
criterion_main!(benches);
