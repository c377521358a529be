//! Diagnostic: full stats for one volano run.
use elsc_bench::{volano_cfg, SchedKind, Shape};
use elsc_workloads::volanomark;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rooms: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    for shape in [Shape::Up, Shape::Smp(2)] {
        for kind in [SchedKind::Reg, SchedKind::Elsc] {
            let cfg = volano_cfg(rooms);
            let r = volanomark::run(shape.machine(), kind.build(shape.topology()), &cfg);
            let t = r.stats.total();
            println!(
                "{}-{}: thr={:.0} el={:.2}s calls={} cyc/s={:.0} exam={:.1} recalc={} rct={} yields={} wake={} ctx={} idle_sched={} spin={} msgs={} mon_spins={}",
                kind.label(), shape.label(), volanomark::throughput(&r), r.elapsed_secs(),
                t.sched_calls, t.cycles_per_schedule(), t.tasks_examined_per_schedule(),
                t.recalc_entries, t.recalc_tasks, t.yields, t.wakeups, t.ctx_switches,
                t.idle_scheduled, r.lock_spin, r.ledger.get("messages"), r.ledger.get("monitor_spins"),
            );
        }
    }
}
