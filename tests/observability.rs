//! The observability subsystem's end-to-end guarantees:
//!
//! * same-seed runs stream **byte-identical** JSON-lines trace files;
//! * the cycle-attribution profiler **conserves** cycles — every phase ×
//!   cost-kind cell sums back to the machine's total metered kernel
//!   cycles, and its scheduler-share figure equals the stats-counter
//!   formula the `kernel_share` binary prints;
//! * the trace-diff utility reports a first divergence between the
//!   baseline and ELSC schedulers on a workload where they disagree;
//! * attaching sinks observes a run without perturbing it, and lost
//!   trace records (a full ring, a trace file that stops taking writes)
//!   are surfaced in the report.

use elsc::ElscScheduler;
use elsc_lab::hash::fnv1a;
use elsc_lab::SchedId;
use elsc_machine::{Machine, MachineConfig, RunReport};
use elsc_obs::{first_divergence, JsonLinesSink, ObsRecord, Phase};
use elsc_sched_api::Scheduler;
use elsc_sched_linux::LinuxScheduler;
use elsc_simcore::Topology;
use elsc_workloads::stress::{self, StressConfig};
use elsc_workloads::volanomark::{self, VolanoConfig};
use std::cell::RefCell;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::rc::Rc;

fn small_volano() -> VolanoConfig {
    VolanoConfig {
        rooms: 2,
        users_per_room: 5,
        messages_per_user: 3,
        ..VolanoConfig::default()
    }
}

fn machine_cfg(cpus: usize) -> MachineConfig {
    MachineConfig::smp(cpus)
        .with_seed(11)
        .with_max_secs(2_000.0)
}

/// Builds a traced VolanoMark machine, optionally streaming to `path`.
fn volano_machine(
    cpus: usize,
    trace: usize,
    sched: Box<dyn Scheduler>,
    path: Option<&PathBuf>,
) -> Machine {
    let cfg = machine_cfg(cpus).with_trace(trace);
    let mut m = Machine::new(cfg, sched);
    if let Some(path) = path {
        let file = fs::File::create(path).expect("create trace file");
        m.add_sink(Box::new(JsonLinesSink::new(BufWriter::new(file))));
    }
    volanomark::build(&mut m, &small_volano());
    m
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("elsc-obs-test-{}-{}", std::process::id(), name));
    p
}

#[test]
fn same_seed_trace_files_are_byte_identical() {
    let p1 = tmp_path("trace1.jsonl");
    let p2 = tmp_path("trace2.jsonl");
    for p in [&p1, &p2] {
        let mut m = volano_machine(2, 0, Box::new(ElscScheduler::new()), Some(p));
        m.run().expect("run completes");
    }
    let b1 = fs::read(&p1).expect("read trace 1");
    let b2 = fs::read(&p2).expect("read trace 2");
    assert!(!b1.is_empty(), "trace file must not be empty");
    assert_eq!(b1, b2, "same seed must stream byte-identical trace files");
    // Every line is a JSON object with the fixed leading keys.
    let text = String::from_utf8(b1).expect("utf-8");
    for line in text.lines() {
        assert!(
            line.starts_with("{\"at\":") && line.ends_with('}'),
            "malformed trace line: {line}"
        );
    }
    let _ = fs::remove_file(&p1);
    let _ = fs::remove_file(&p2);
}

#[test]
fn profiler_conserves_cycles_and_matches_stats() {
    for sched in [
        Box::new(LinuxScheduler::new()) as Box<dyn Scheduler>,
        Box::new(ElscScheduler::new()),
    ] {
        let name = sched.name();
        let mut m = volano_machine(2, 0, sched, None);
        let report = m.run().expect("run completes");

        // Conservation at the machine level: everything the machine
        // charged as kernel time landed in exactly one profiler cell.
        assert_eq!(
            m.profiler().total(),
            m.kernel_cycles(),
            "{name}: attributed cycles must sum to metered kernel cycles"
        );
        let p = &report.profile;
        assert_eq!(p.total(), m.kernel_cycles(), "{name}: report total");

        // Marginal sums: per-phase and per-CPU breakdowns re-add to the
        // same total.
        let by_phase: u64 = Phase::all().iter().map(|ph| p.phase_total(*ph)).sum();
        assert_eq!(by_phase, p.total(), "{name}: phase marginals");
        let by_cpu: u64 = (0..p.nr_cpus()).map(|c| p.cpu_total(c)).sum();
        assert_eq!(by_cpu, p.total(), "{name}: cpu marginals");

        // Cross-check against the independent stats counters: the
        // Schedule phase is precisely `schedule()`'s metered cycles and
        // LockSpin precisely the spin-wait cycles.
        let t = report.stats.total();
        assert_eq!(p.phase_total(Phase::Schedule), t.sched_cycles, "{name}");
        assert_eq!(p.phase_total(Phase::LockSpin), t.lock_spin_cycles, "{name}");

        // And therefore the profiler's scheduler-share figure equals the
        // `kernel_share` binary's formula exactly.
        let share = p.sched_share();
        let expected = t.sched_time_share();
        assert!(
            (share - expected).abs() < 1e-12,
            "{name}: profile share {share} != stats share {expected}"
        );
    }
}

#[test]
fn trace_diff_reports_first_divergence_between_schedulers() {
    let run = |sched: Box<dyn Scheduler>| -> Vec<ObsRecord> {
        let cfg = MachineConfig::smp(2)
            .with_seed(7)
            .with_trace(200_000)
            .with_max_secs(2_000.0);
        let mut m = Machine::new(cfg, sched);
        stress::build(
            &mut m,
            &StressConfig {
                tasks: 12,
                rounds: 6,
                ..StressConfig::default()
            },
        );
        m.run().expect("run completes");
        m.trace().records().to_vec()
    };
    let reg = run(Box::new(LinuxScheduler::new()));
    let elsc = run(Box::new(ElscScheduler::new()));
    let diff = first_divergence(&reg, &elsc);
    assert!(
        !diff.identical(),
        "reg and elsc must diverge on a contended workload"
    );
    let d = diff.divergence.expect("divergence details");
    assert_eq!(d.index, diff.common_prefix);
    assert!(
        d.a.is_some() || d.b.is_some(),
        "at least one side has a record at the divergence point"
    );
    // A trace diffed against itself is identical.
    assert!(first_divergence(&reg, &reg).identical());
}

/// An in-memory JSON-lines stream, shared with the sink writing it.
#[derive(Clone, Default)]
struct Stream(Rc<RefCell<Vec<u8>>>);

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The four observers a run can carry, as a bit set.
const RING: u8 = 1;
const SINK: u8 = 2;
const ORACLE: u8 = 4;
const DECISION_TRACE: u8 = 8;
const ALL_ON: u8 = RING | SINK | ORACLE | DECISION_TRACE;

/// Runs the small VolanoMark on 2P under `sched` with the observers in
/// `on` attached; returns the report and the JSON-lines stream (empty
/// without [`SINK`]).
fn observed_run(sched: &SchedId, on: u8) -> (RunReport, Vec<u8>) {
    let cfg = machine_cfg(2)
        .with_trace(if on & RING != 0 { 100_000 } else { 0 })
        .with_oracle(on & ORACLE != 0)
        .with_decision_trace(on & DECISION_TRACE != 0);
    let mut m = Machine::new(cfg, sched.build(Topology::flat(2)));
    let stream = Stream::default();
    if on & SINK != 0 {
        m.add_sink(Box::new(JsonLinesSink::new(stream.clone())));
    }
    volanomark::build(&mut m, &small_volano());
    let report = m.run().expect("run completes");
    (report, stream.0.take())
}

/// The whole report with the observer-owned fields blanked: what must
/// not depend on who was watching.
fn unobserved(r: &RunReport) -> (String, String) {
    let mut r = r.clone();
    r.chaos = None;
    r.trace_dropped = 0;
    (r.to_json(), format!("{r:?}"))
}

fn bundled(kind: &str, name: &str, src: &str) -> SchedId {
    match kind {
        "policy" => SchedId::policy(format!("policy:{name}"), src),
        _ => SchedId::learned(format!("learned:{name}"), src),
    }
    .expect("bundled file loads")
}

#[test]
fn observation_does_not_perturb_the_run() {
    // (scheduler, FNV-1a and byte count of the all-observers-on
    // JSON-lines stream). The digests were captured at the commit before
    // `do_schedule` became one pipeline over one pre-decision view, so
    // they pin every emission's position and timestamp across it.
    let rows = [
        (SchedId::Reg, 0x9dc5_5298_aa51_3472u64, 1_181_181usize),
        (SchedId::Elsc, 0xd941_c62d_47fd_b6d8, 1_120_905),
        (SchedId::Mq, 0x66cd_dfb4_4b21_09c5, 1_236_992),
        (
            bundled("policy", "reg", include_str!("../policies/reg.pol")),
            0x7cdb_85d2_2b3f_d30f,
            1_226_728,
        ),
        (
            bundled(
                "learned",
                "volano-mlp",
                include_str!("../models/volano-mlp.model"),
            ),
            0x3efe_4595_e6d4_b30c,
            1_180_876,
        ),
    ];
    for (sched, fnv, bytes) in &rows {
        let name = sched.label();
        let (bare, _) = observed_run(sched, 0);
        assert!(bare.chaos.is_none() && bare.trace_dropped == 0);
        let bare = unobserved(&bare);
        for on in 1..=ALL_ON {
            let (report, stream) = observed_run(sched, on);
            let (json, debug) = unobserved(&report);
            assert_eq!(bare.0, json, "{name}: observers {on:#06b} moved the report");
            assert!(bare.1 == debug, "{name}: observers {on:#06b} moved the run");
            assert_eq!(on & SINK != 0, !stream.is_empty(), "{name}: {on:#06b}");
            if on == ALL_ON {
                assert_eq!(
                    (fnv1a(&stream), stream.len()),
                    (*fnv, *bytes),
                    "{name}: the fully observed event stream moved"
                );
                let oracle = report.chaos.as_ref().and_then(|c| c.oracle.as_ref());
                assert!(oracle.is_some_and(|o| o.decisions > 0), "{name}: judged");
            }
        }
    }
}

#[test]
fn ejections_report_the_same_bytes_as_before_the_supervision_merge() {
    // One watchdog ejection per supervised kind. The report digests were
    // captured at the commit that still had a separate policy and learned
    // ejection path; the single supervision record must reproduce both.
    let rows = [
        (
            bundled("policy", "starve", include_str!("../policies/starve.pol")),
            "starvation",
            0x2cfa_1d72_08b0_326cu64,
        ),
        (
            bundled(
                "learned",
                "adversarial",
                include_str!("../models/adversarial.model"),
            ),
            "accuracy_collapse",
            0xb3b3_37a1_5812_d2b5,
        ),
    ];
    for (sched, reason, fnv) in &rows {
        let name = sched.label();
        let (report, _) = observed_run(sched, 0);
        let reported = match (&report.policy, &report.learned) {
            (Some(p), None) => p.eject_reason,
            (None, Some(l)) => l.eject_reason,
            _ => panic!("{name}: exactly one supervision summary"),
        };
        assert_eq!(reported, Some(*reason), "{name}");
        assert_eq!(report.scheduler, name, "the run keeps the ejected name");
        assert_eq!(fnv1a(report.to_json().as_bytes()), *fnv, "{name}");
    }
}

#[test]
fn ring_truncation_is_surfaced_in_the_report() {
    let mut m = volano_machine(1, 4, Box::new(ElscScheduler::new()), None);
    let report = m.run().expect("run completes");
    assert!(report.trace_dropped > 0, "a 4-slot ring must overflow");
    assert!(
        report.to_string().contains("warning: the trace lost"),
        "the report must warn about truncation"
    );
}

#[test]
fn a_trace_file_that_stops_taking_writes_is_surfaced_in_the_report() {
    /// A `--trace-out` target on a disk that fills up after `room` bytes.
    struct FullDisk {
        room: usize,
    }
    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.room {
                self.room = 0;
                return Err(std::io::Error::other("no space left on device"));
            }
            self.room -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    // A lossless sink beside the failing one: the lines it holds past the
    // first 4 KB are exactly the ones the full disk lost.
    let whole = Stream::default();
    let mut m = volano_machine(2, 0, Box::new(ElscScheduler::new()), None);
    m.add_sink(Box::new(JsonLinesSink::new(whole.clone())));
    m.add_sink(Box::new(JsonLinesSink::new(FullDisk { room: 4096 })));
    let report = m.run().expect("a failing trace sink must not fail the run");
    let whole = whole.0.take();
    let newlines = |b: &[u8]| b.iter().filter(|&&b| b == b'\n').count() as u64;
    let kept = newlines(&whole[..4096]);
    let lost = newlines(&whole) - kept;
    assert!(kept > 0 && lost > 0, "{kept} lines fit, {lost} did not");
    assert_eq!(report.trace_dropped, lost, "every lost line counts");
    assert!(report
        .to_json()
        .contains(&format!("\"trace_dropped\":{lost}")));
    assert!(
        report.to_string().contains("warning: the trace lost"),
        "the report must say the trace is incomplete"
    );
}

#[test]
fn report_json_is_deterministic_and_self_consistent() {
    let run = || {
        let mut m = volano_machine(2, 0, Box::new(ElscScheduler::new()), None);
        m.run().expect("run completes").to_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed report JSON must be byte-identical");
    assert!(a.contains("\"scheduler\":\"elsc\""));
    assert!(a.contains("\"profile\":"));
    assert!(a.contains("\"wake_latency\":"));
    assert!(a.contains("\"trace_dropped\":0"));
}
