//! reg as it was before the goodness index: the same queue
//! ([`LinuxScheduler`]), its scan answered by the O(n) walk of the same
//! list — the reference the index is held to.

use elsc_ktask::Tid;
use elsc_sched_api::{frame, SchedCtx, Scheduler};

use elsc_sched_linux::LinuxScheduler;

/// reg as it was before the index: the same queue, scanned by walking it.
pub struct Walk(pub LinuxScheduler);

impl Scheduler for Walk {
    fn name(&self) -> &'static str {
        "reg-walk"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.0.add_to_runqueue(ctx, tid);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.0.del_from_runqueue(ctx, tid);
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.0.move_first_runqueue(ctx, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.0.move_last_runqueue(ctx, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: usize, prev: Tid, idle: Tid) -> Tid {
        let entered = frame::enter(&mut self.0, ctx, cpu, prev, idle);
        let (lists, nr_running) = (self.0.run_list(), self.0.nr_running());
        let next = frame::select(ctx, cpu, prev, idle, entered, nr_running, |ctx, _| {
            frame::scan_list(lists, 0, ctx, cpu, prev, entered.prev_mm)
        });
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.0.nr_running()
    }
}
