//! Micro-probes: one public operation of one crate, timed in a loop.
//!
//! They price the layers the workloads are made of, on inputs that do
//! not depend on the workload, so the same probe reads the same on every
//! traced pass and a change to one layer shows in its probe first. Each
//! probe is the median of [`BATCHES`] timed batches and sits in a
//! `probe.<crate>.<op>` span.

use std::path::Path;
use std::time::Instant;

use elsc_bench::rig::Rig;
use elsc_bench::SchedKind;
use elsc_ktask::{recalc::recalculate_counters, MmId, TaskSpec, TaskTable};
use elsc_lab::jsonv::Value;
use elsc_lab::{calibrate, compare, run_sweep, Cache, RunOptions, SweepSpec};
use elsc_netsim::{Link, LinkConfig, Msg, Pipe};
use elsc_obs::{EventBus, JsonLinesSink, ObsEvent};
use elsc_policy::PolicyScheduler;
use elsc_sched_api::SchedConfig;
use elsc_simcore::{CalendarEventQueue, Cycles, SimRng};

use crate::rep::{scratch_dir, DigestWriter};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::TABLE_POL;

/// Timed batches per probe.
pub const BATCHES: usize = 5;

/// Median over [`BATCHES`] of `f`'s duration in ns, divided by `ops`.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Tick- and think-sized deltas: what the machine actually schedules
/// ahead (10 ms ticks at 400 MHz, exponential 60 M-cycle think times).
fn delta(rng: &mut SimRng) -> u64 {
    if rng.chance(0.5) {
        rng.jitter(4_000_000, 0.25)
    } else {
        rng.exp(60_000_000.0) as u64
    }
}

/// Hold model on the calendar queue at depth `depth`: pop the earliest
/// event, push it back a delta later — the steady state of the engine.
fn evq_hold(seed: u64, depth: usize) -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = SimRng::new(seed);
    let mut q = CalendarEventQueue::new();
    for i in 0..depth {
        q.push(Cycles(delta(&mut rng)), i as u32);
    }
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("hold model keeps the depth");
            q.push(Cycles(t.get() + delta(&mut rng)), e);
        }
        std::hint::black_box(q.len());
    })
}

fn evq_fill(seed: u64) -> f64 {
    const N: u64 = 100_000;
    let mut rng = SimRng::new(seed);
    let times: Vec<u64> = (0..N).map(|_| delta(&mut rng)).collect();
    ns_per_op(N, || {
        let mut q = CalendarEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycles(t), i as u32);
        }
        std::hint::black_box(q.len());
    })
}

fn spawn_table(n: usize) -> TaskTable {
    let mut t = TaskTable::new();
    for i in 0..n {
        t.spawn(&TaskSpec::named("load").mm(MmId(1 + (i % 8) as u32)));
    }
    t
}

fn schedule_ns(kind: SchedKind, n: usize, calls: u64) -> f64 {
    let mut rig = Rig::new(kind, SchedConfig::smp(2), n);
    ns_per_op(calls, || {
        for _ in 0..calls {
            std::hint::black_box(rig.schedule_once());
        }
    })
}

/// `policy:table` on the VM behind the same rig: ns per `schedule()` and
/// ns per executed VM instruction.
fn policy_schedule(n: usize, calls: u64) -> Result<(f64, f64), String> {
    let cfg = SchedConfig::smp(2);
    let mut rig = Rig::new(SchedKind::Elsc, cfg.clone(), 0);
    rig.sched = Box::new(
        PolicyScheduler::load_str(TABLE_POL, cfg.nr_cpus)
            .map_err(|e| format!("policies/table.pol: {e}"))?,
    );
    for i in 0..n {
        let tid = rig
            .tasks
            .spawn(&TaskSpec::named("load").mm(MmId(1 + (i % 8) as u32)));
        rig.tasks.task_mut(tid).counter = 1 + (i % 20) as i32;
        rig.tasks.task_mut(tid).processor = i % cfg.nr_cpus;
        rig.add(tid);
    }
    let before = rig.sched.policy_insns_executed();
    let ns = ns_per_op(calls, || {
        for _ in 0..calls {
            std::hint::black_box(rig.schedule_once());
        }
    });
    let insns = rig.sched.policy_insns_executed() - before;
    if insns == 0 {
        return Err("policy probe executed no VM instructions".to_string());
    }
    Ok((ns, ns * (BATCHES as u64 * calls) as f64 / insns as f64))
}

/// The `smoke` builtin's text with the seed made an argument.
pub fn smoke_spec(seed: u64) -> String {
    format!(
        "name = smoke\n\
         workload = volano\n\
         sched = reg, elsc, heap, aheap, mq\n\
         shape = UP, 2P\n\
         seed = {seed}\n\
         rooms = 1\n users = 4\n messages = 2\n think = 0\n"
    )
}

type Probed = Result<Vec<(&'static str, f64)>, String>;

fn simcore(seed: u64) -> Probed {
    Ok(vec![
        ("simcore.evq_hold_ns_d1k", evq_hold(seed, 1_000)),
        ("simcore.evq_hold_ns_d100k", evq_hold(seed, 100_000)),
        ("simcore.evq_fill_ns_per_push", evq_fill(seed)),
    ])
}

fn ktask() -> Probed {
    const N: usize = 100_000;
    const SWEEPS: u64 = 20;
    let spawn = ns_per_op(N as u64, || {
        std::hint::black_box(spawn_table(N).len());
    });
    let mut table = spawn_table(N);
    let recalc = ns_per_op(SWEEPS * N as u64, || {
        for _ in 0..SWEEPS {
            std::hint::black_box(recalculate_counters(&mut table));
        }
    });
    Ok(vec![
        ("ktask.spawn_ns_per_task", spawn),
        ("ktask.recalc_ns_per_task", recalc),
    ])
}

fn sched() -> Probed {
    Ok(vec![
        (
            "sched-linux.schedule_ns_n64",
            schedule_ns(SchedKind::Reg, 64, 50_000),
        ),
        (
            "sched-linux.schedule_ns_n1k",
            schedule_ns(SchedKind::Reg, 1_000, 5_000),
        ),
        (
            "core.schedule_ns_n64",
            schedule_ns(SchedKind::Elsc, 64, 50_000),
        ),
        (
            "core.schedule_ns_n1k",
            schedule_ns(SchedKind::Elsc, 1_000, 50_000),
        ),
    ])
}

fn policy() -> Probed {
    const LOADS: u64 = 20;
    let load_ns = ns_per_op(LOADS, || {
        for _ in 0..LOADS {
            std::hint::black_box(PolicyScheduler::load_str(TABLE_POL, 2).is_ok());
        }
    });
    let (ns, per_insn) = policy_schedule(64, 20_000)?;
    Ok(vec![
        ("policy.load_us", load_ns / 1e3),
        ("policy.schedule_ns_n64", ns),
        ("policy.ns_per_insn", per_insn),
    ])
}

fn netsim() -> Probed {
    const OPS: u64 = 1_000_000;
    let mut pipe = Pipe::new(16);
    let rw = ns_per_op(OPS, || {
        for i in 0..OPS {
            let _ = std::hint::black_box(pipe.try_write(Msg::tagged(i)));
            let _ = std::hint::black_box(pipe.try_read());
        }
    });
    let mut link = Link::new(LinkConfig::default());
    let mut now = 0u64;
    let transmit = ns_per_op(OPS, || {
        for _ in 0..OPS {
            now += 1_000;
            std::hint::black_box(link.transmit(Cycles(now), 64));
        }
    });
    Ok(vec![
        ("netsim.pipe_rw_ns", rw),
        ("netsim.link_transmit_ns", transmit),
    ])
}

fn obs() -> Probed {
    const QUIET: u64 = 10_000_000;
    const LINES: u64 = 200_000;
    let mut table = TaskTable::new();
    let from = table.spawn(&TaskSpec::named("a"));
    let to = table.spawn(&TaskSpec::named("b"));
    let event = ObsEvent::Switch { cpu: 0, from, to };
    // ROADMAP 5(f): with nothing attached, emission must cost ~nothing.
    let mut bus = EventBus::new(0);
    let nosink = ns_per_op(QUIET, || {
        for i in 0..QUIET {
            bus.set_now(Cycles(i));
            bus.emit(std::hint::black_box(event));
        }
    });
    let mut bus = EventBus::new(0);
    let (w, state) = DigestWriter::new();
    bus.add_sink(Box::new(JsonLinesSink::new(w)));
    let jsonl = ns_per_op(LINES, || {
        for i in 0..LINES {
            bus.set_now(Cycles(i));
            bus.emit(event);
        }
    });
    if state.get().2 != LINES * BATCHES as u64 {
        return Err("obs probe lost trace lines".to_string());
    }
    Ok(vec![
        ("obs.emit_nosink_ns", nosink),
        ("obs.jsonl_ns_per_event", jsonl),
    ])
}

/// The lab's codec, gate and cache on a `smoke` manifest (10 cells,
/// ~34 KB) swept cold into a scratch cache first.
fn lab(seed: u64, dir: &Path) -> Probed {
    const PARSES: u64 = 100;
    const COMPARES: u64 = 20;
    const WARM: u64 = 50;
    let spec: SweepSpec = smoke_spec(seed).parse()?;
    let cells = spec.cells().len() as u64;
    let cache_dir = scratch_dir(dir, "probe-cache");
    let cache = Cache::new(&cache_dir);
    let opts = RunOptions::default();
    let manifest = run_sweep(&spec, &cache, &opts).manifest();
    let result = manifest.ok_or("smoke sweep failed".to_string()).map(|m| {
        let parse_ns = ns_per_op(PARSES, || {
            for _ in 0..PARSES {
                std::hint::black_box(Value::parse(&m).is_ok());
            }
        });
        let compare_ns = ns_per_op(COMPARES, || {
            for _ in 0..COMPARES {
                std::hint::black_box(compare::compare(&m, &m, 0.05).is_ok());
            }
        });
        let warm_ns = ns_per_op(WARM * cells, || {
            for _ in 0..WARM {
                std::hint::black_box(run_sweep(&spec, &cache, &opts).cached);
            }
        });
        vec![
            // bytes per ns × 1e3 = MB/s
            ("lab.jsonv_parse_mb_per_s", m.len() as f64 / parse_ns * 1e3),
            ("lab.compare_ms", compare_ns / 1e6),
            ("lab.warm_sweep_us_per_cell", warm_ns / 1e3),
            ("lab.calib_ref_ms", calibrate::reference_secs() * 1e3),
        ]
    });
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

/// Runs every probe, each group inside its own span; returns
/// `(metric name, value)` pairs.
pub fn run_all(seed: u64, dir: &Path, rec: &mut Recorder) -> Probed {
    let groups: [(&str, &dyn Fn() -> Probed); 7] = [
        ("probe.simcore.evq", &|| simcore(seed)),
        ("probe.ktask.table", &ktask),
        ("probe.sched.schedule", &sched),
        ("probe.policy.vm", &policy),
        ("probe.netsim.pipe_link", &netsim),
        ("probe.obs.bus", &obs),
        ("probe.lab.smoke", &|| lab(seed, dir)),
    ];
    let mut out = Vec::new();
    for (span, f) in groups {
        out.extend(rec.time(span, |_| f()).0?);
    }
    Ok(out)
}
