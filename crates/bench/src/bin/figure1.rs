//! Figure 1: illustration of the two run-queue structures.
//!
//! The paper's Figure 1 shows the same four runnable tasks — static
//! goodness 40, 33, 23, 22 — as (a) the baseline's single unsorted list
//! and (b) the ELSC table of lists. This binary builds exactly that state
//! with the real data structures and renders it.

use elsc::ElscScheduler;
use elsc_bench::rig::Rig;
use elsc_ktask::TaskSpec;
use elsc_lab::header;
use elsc_sched_api::{SchedConfig, Scheduler};
use elsc_sched_linux::LinuxScheduler;

/// The static-goodness values from the paper's figure.
const GOODNESS: [i32; 4] = [40, 33, 23, 22];

/// A rig around `sched` holding the figure's four tasks (priority 20),
/// inserted in reverse so the figure's order (40 first) comes out.
fn populated<S: Scheduler>(sched: S) -> Rig<S> {
    let mut rig = Rig::around(Box::new(sched), SchedConfig::up());
    for &sg in GOODNESS.iter().rev() {
        let tid = rig.tasks.spawn(&TaskSpec::named("task").priority(20));
        rig.tasks.task_mut(tid).counter = sg - 20;
        rig.add(tid);
    }
    rig
}

/// Prints ` -> [sg]` for each task-table index in `members`.
fn print_chain<S: Scheduler>(rig: &Rig<S>, members: Vec<u32>) {
    for i in members {
        print!(" -> [{}]", rig.tasks.by_index(i as usize).static_goodness());
    }
}

fn main() {
    header(
        "Figure 1 — run-queue structures of both schedulers",
        "Molloy & Honeyman 2001, Figure 1",
    );

    let reg = populated(LinuxScheduler::new());
    println!("(a) current scheduler: one unsorted list, scanned fully:");
    print!("    head");
    print_chain(&reg, reg.sched.queue_order(&reg.tasks));
    println!(" -> head");

    let elsc = populated(ElscScheduler::new());
    let table = elsc.sched.table();
    println!("\n(b) ELSC: a table of lists indexed by static goodness / 4:");
    for list in (0..30).rev() {
        let members = table.lists().collect(&elsc.tasks, list);
        if !members.is_empty() {
            let is_top = table.top() == Some(list);
            print!("    list[{list:>2}]{}", if is_top { " <- top" } else { "" });
            print_chain(&elsc, members);
            println!();
        }
    }
    println!("\nselection: the baseline evaluates all 4 tasks; ELSC looks only at");
    println!("the top list and runs [40] after examining a single candidate.");
}
