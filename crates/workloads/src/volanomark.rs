//! The VolanoMark-style chat benchmark (paper §4).
//!
//! Topology per simulated user:
//!
//! ```text
//!  client JVM (mm=2)                server JVM (mm=1)
//!  ┌───────────┐  c2s pipe   ┌───────────┐
//!  │ client_tx ├────────────►│ server_rx ├──┐ fan-out to every room
//!  └───────────┘             └───────────┘  │ member's outbox
//!  ┌───────────┐  s2c pipe   ┌───────────┐◄─┘
//!  │ client_rx │◄────────────┤ server_tx │   (outbox pipe)
//!  └───────────┘             └───────────┘
//! ```
//!
//! Four threads per connection ("Because Java does not provide
//! non-blocking read and write, VolanoMark uses a pair of threads on each
//! end of each socket connection"), so a room of 20 users contributes 80
//! threads. Each user sends `messages_per_user` messages; the server
//! broadcasts each to all room members (sender included), so every user
//! receives `users_per_room * messages_per_user` messages.
//!
//! The IBM JVM's thread library of the era spun on locks with
//! `sched_yield()`; `yield_prob` injects those yields, which is what makes
//! the baseline scheduler's recalculation storm visible (Figure 2).
//!
//! The benchmark metric is message *throughput*: delivered messages per
//! simulated second, counted in the ledger under `"messages"`.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use elsc_ktask::{MmId, TaskSpec};
use elsc_machine::{Behavior, Machine, MachineConfig, Op, RunReport, SysView, Syscall};
use elsc_netsim::{Msg, PipeId};
use elsc_sched_api::Scheduler;

/// Server JVM address space.
pub const SERVER_MM: MmId = MmId(1);

/// Client JVM address space.
pub const CLIENT_MM: MmId = MmId(2);

/// Socket buffer capacity in messages.
pub const PIPE_CAPACITY: usize = 16;

/// Client-side cycles to produce a message (JVM serialization etc.).
const CLIENT_SEND_WORK: u64 = 60_000;

/// Client-side cycles to consume a received message.
const CLIENT_RECV_WORK: u64 = 25_000;

/// Server-side cycles to parse/route an incoming message.
const SERVER_ROUTE_WORK: u64 = 30_000;

/// Server-side cycles per fan-out recipient.
const FANOUT_WORK: u64 = 4_000;

/// Server-side cycles to push one message to a socket.
const SERVER_SEND_WORK: u64 = 20_000;

/// Uniform jitter fraction applied to all work amounts.
const JITTER: f64 = 0.25;

/// VolanoMark parameters.
#[derive(Clone, Debug)]
pub struct VolanoConfig {
    /// Number of chat rooms (the paper sweeps 5, 10, 15, 20).
    pub rooms: usize,
    /// Users per room (paper: 20).
    pub users_per_room: usize,
    /// Messages each user sends (paper: 100; smaller values shorten the
    /// measurement without changing rates).
    pub messages_per_user: usize,
    /// Probability that a thread spins on a JVM lock (one
    /// `sched_yield()`) between socket operations.
    pub yield_prob: f64,
    /// Mean client think time between sends (exponentially distributed,
    /// cycles; 0 disables). Chat clients pause between messages, which
    /// produces the quiet moments where a lone polling thread spins on
    /// `sched_yield()` — the baseline's recalculation storm (Figure 2).
    pub think_cycles: u64,
}

impl Default for VolanoConfig {
    /// Calibrated so a 5-room UP run lands near the paper's ~4 500
    /// messages/second (see `EXPERIMENTS.md`).
    fn default() -> Self {
        VolanoConfig {
            rooms: 5,
            users_per_room: 20,
            messages_per_user: 10,
            yield_prob: 0.02,
            think_cycles: 60_000_000,
        }
    }
}

impl VolanoConfig {
    /// Paper-style config for `rooms` rooms.
    pub fn rooms(rooms: usize) -> Self {
        VolanoConfig {
            rooms,
            ..VolanoConfig::default()
        }
    }

    /// Total threads this config creates (4 per user).
    pub fn total_threads(&self) -> usize {
        self.rooms * self.users_per_room * 4
    }

    /// Total message deliveries the run will perform.
    pub fn total_deliveries(&self) -> u64 {
        (self.rooms * self.users_per_room * self.users_per_room * self.messages_per_user) as u64
    }
}

/// JVM-style lock spinning: `sched_yield()` in a streak until the "lock"
/// is free. Returns the yield op while a streak is active.
struct YieldSpin {
    prob: f64,
    pending: u32,
}

impl YieldSpin {
    fn new(prob: f64) -> YieldSpin {
        YieldSpin { prob, pending: 0 }
    }

    /// Consults the spin state; `Some(op)` means yield now.
    fn maybe(&mut self, rng: &mut elsc_simcore::SimRng) -> Option<Op> {
        if self.pending > 0 {
            self.pending -= 1;
            return Some(Op::yield_after(300));
        }
        if rng.chance(self.prob) {
            // The era's JVM thread library spun on contended locks with
            // a burst of sched_yield() calls.
            self.pending = rng.range(2, 12) as u32;
            return Some(Op::yield_after(300));
        }
        None
    }
}

/// Client-side sender thread: produce and write `left` messages.
struct ClientTx {
    c2s: PipeId,
    left: u32,
    think: u64,
    thought: bool,
    spin: YieldSpin,
    tag: u64,
}

impl Behavior for ClientTx {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        if self.left == 0 {
            return Op::exit();
        }
        if self.think > 0 && !self.thought {
            // The user composes the next message.
            self.thought = true;
            return Op::sleep_after(200, sys.rng.exp(self.think as f64) as u64);
        }
        if let Some(op) = self.spin.maybe(sys.rng) {
            return op;
        }
        self.thought = false;
        self.left -= 1;
        let work = sys.rng.jitter(CLIENT_SEND_WORK, JITTER);
        Op::write_after(work, self.c2s, Msg::tagged(self.tag))
    }
}

/// Client-side receiver thread: consume `expected` broadcasts.
struct ClientRx {
    s2c: PipeId,
    expected: u32,
    /// Whether the previous `resume` issued a read (so a `None`
    /// `last_read` now means the socket died, not "first resume").
    awaiting: bool,
}

impl Behavior for ClientRx {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        if self.awaiting {
            self.awaiting = false;
            match sys.last_read {
                Some(_) => sys.ledger.add("messages", 1),
                // The connection was reset under the read (chaos
                // `peer_reset`): a real chat client sees EOF/ECONNRESET
                // and gives up rather than re-reading a dead socket.
                None => return Op::exit(),
            }
        }
        if self.expected == 0 {
            return Op::exit();
        }
        self.expected -= 1;
        self.awaiting = true;
        let work = sys.rng.jitter(CLIENT_RECV_WORK, JITTER);
        Op::read_after(work, self.s2c)
    }
}

/// A VolanoChat room object's Java monitor. The era's JVM spun on
/// contended monitors with `sched_yield()` — with no bound — so a holder
/// that blocks mid-broadcast leaves its contenders yielding in a loop.
/// When such a spinner is the only runnable task, each of those yields
/// drives the baseline scheduler through the system-wide counter
/// recalculation (Figure 2's storm).
///
/// Public so the cluster federation can build a room's server side
/// through [`spawn_server_pair`]: every reader thread of a room shares
/// one monitor, so the builder owns it and threads it through.
pub type RoomMonitor = Rc<Cell<bool>>;

/// Creates a fresh (unlocked) room monitor for [`spawn_server_pair`].
pub fn new_room_monitor() -> RoomMonitor {
    Rc::new(Cell::new(false))
}

/// Server-side reader thread for one connection: read each message from
/// its client and broadcast it to every room member's outbox.
struct ServerRx {
    c2s: PipeId,
    /// The room's outboxes, one list shared by every reader of the room.
    outboxes: Arc<[PipeId]>,
    to_read: u32,
    monitor: RoomMonitor,
    /// Consecutive sched_yield() spins on the monitor so far.
    spins: u32,
    phase: SrvPhase,
    /// Whether the previous `resume` issued a read — see [`ClientRx`].
    awaiting: bool,
}

/// Where a server reader thread is in its read/route/broadcast cycle.
enum SrvPhase {
    /// Waiting for the next message from its client.
    Reading,
    /// Message in hand; trying to take the room monitor.
    Acquire(u64),
    /// Holding the monitor while routing (building the recipient
    /// snapshot under the room's synchronized block).
    Routing(u64),
    /// Monitor released; writing the message to each outbox.
    Fanout(u64, usize),
    /// Connection reset observed: closing every room outbox (index of the
    /// next one to close), so the server writers and — transitively — the
    /// clients unwedge instead of waiting for broadcasts that will never
    /// arrive.
    Teardown(usize),
}

impl Behavior for ServerRx {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        if let Some(msg) = sys.last_read {
            debug_assert!(matches!(self.phase, SrvPhase::Reading));
            self.awaiting = false;
            self.to_read -= 1;
            self.phase = SrvPhase::Acquire(msg.tag);
        } else if self.awaiting {
            // The client connection was reset under our read (chaos
            // `peer_reset`). Re-issuing the read would return `Closed`
            // immediately, forever — the wedge the `net` chaos sweep
            // caught (`to_read` never advances, so the thread spins until
            // the watchdog). A real server drops the connection and tears
            // the room down: without that, every other member of the room
            // waits forever for this client's remaining broadcasts.
            self.awaiting = false;
            self.phase = SrvPhase::Teardown(0);
        }
        loop {
            match self.phase {
                SrvPhase::Acquire(tag) => {
                    if self.monitor.get() {
                        // Spin-then-block, as the era's JVM monitors did:
                        // a few sched_yield() spins, then a short sleep.
                        if self.spins < 3 {
                            self.spins += 1;
                            sys.ledger.add("monitor_spins", 1);
                            return Op::yield_after(300);
                        }
                        self.spins = 0;
                        return Op::sleep_after(200, sys.rng.jitter(80_000, 0.5));
                    }
                    self.spins = 0;
                    self.monitor.set(true);
                    self.phase = SrvPhase::Routing(tag);
                    // Route under the monitor: parse and snapshot the
                    // room's member list.
                    let work = sys.rng.jitter(SERVER_ROUTE_WORK, JITTER);
                    return Op::compute(work, Syscall::Nop);
                }
                SrvPhase::Routing(tag) => {
                    self.monitor.set(false);
                    self.phase = SrvPhase::Fanout(tag, 0);
                }
                SrvPhase::Fanout(tag, idx) => {
                    if idx < self.outboxes.len() {
                        self.phase = SrvPhase::Fanout(tag, idx + 1);
                        let work = sys.rng.jitter(FANOUT_WORK, JITTER);
                        return Op::write_after(work, self.outboxes[idx], Msg::tagged(tag));
                    }
                    self.phase = SrvPhase::Reading;
                }
                SrvPhase::Reading => {
                    if self.to_read == 0 {
                        return Op::exit();
                    }
                    self.awaiting = true;
                    return Op::read_after(2_000, self.c2s);
                }
                SrvPhase::Teardown(idx) => {
                    if idx < self.outboxes.len() {
                        self.phase = SrvPhase::Teardown(idx + 1);
                        return Op::close_after(200, self.outboxes[idx]);
                    }
                    return Op::exit();
                }
            }
        }
    }
}

/// Server-side writer thread for one connection: forward everything from
/// the user's outbox onto the socket.
struct ServerTx {
    outbox: PipeId,
    s2c: PipeId,
    expected: u32,
    forward: Option<Msg>,
    /// True while a read on the outbox is outstanding, so a `None`
    /// `last_read` on resume means "outbox closed", not "first resume".
    awaiting: bool,
    /// Set once the outbox died and we've issued the `s2c` close; the
    /// next resume just exits.
    dying: bool,
}

impl Behavior for ServerTx {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        if self.dying {
            return Op::exit();
        }
        if self.awaiting {
            self.awaiting = false;
            match sys.last_read {
                Some(msg) => self.forward = Some(msg),
                None => {
                    // The outbox was closed under our read: the room is
                    // tearing down after a connection reset (chaos
                    // `peer_reset`). Propagate the shutdown to our client
                    // socket so ClientRx — parked on `s2c` — unwedges and
                    // exits instead of deadlocking the whole room.
                    self.dying = true;
                    return Op::close_after(200, self.s2c);
                }
            }
        }
        if let Some(msg) = self.forward.take() {
            let work = sys.rng.jitter(SERVER_SEND_WORK, JITTER);
            return Op::write_after(work, self.s2c, msg);
        }
        if self.expected == 0 {
            return Op::exit();
        }
        self.expected -= 1;
        self.awaiting = true;
        Op::read_after(200, self.outbox)
    }
}

/// Spawns one connection's client side (`client_tx` then `client_rx`)
/// onto `m`: the sender writes `messages_per_user` tagged messages into
/// `c2s`, the receiver consumes the full room broadcast volume from
/// `s2c`.
///
/// [`build`] calls this for every user; the cluster federation calls it
/// on whichever node the dispatcher placed the client, with `c2s`/`s2c`
/// being that node's local pipe endpoints (bridged when the room's
/// server lives elsewhere).
pub fn spawn_client_pair(m: &mut Machine, cfg: &VolanoConfig, c2s: PipeId, s2c: PipeId, tag: u64) {
    let per_user_expected = (cfg.users_per_room * cfg.messages_per_user) as u32;
    m.spawn(
        &TaskSpec::named("client_tx").mm(CLIENT_MM),
        Box::new(ClientTx {
            c2s,
            left: cfg.messages_per_user as u32,
            think: cfg.think_cycles,
            thought: false,
            spin: YieldSpin::new(cfg.yield_prob),
            tag,
        }),
    );
    m.spawn(
        &TaskSpec::named("client_rx").mm(CLIENT_MM),
        Box::new(ClientRx {
            s2c,
            expected: per_user_expected,
            awaiting: false,
        }),
    );
}

/// Spawns one connection's server side (`server_rx` then `server_tx`)
/// onto `m`: the reader routes this client's messages from `c2s` into
/// every room `outbox` under the shared room `monitor`, the writer
/// forwards this user's `outbox` onto `s2c`.
///
/// All pipes must live on `m`'s pipe table, and every reader of a room
/// shares the room's one `outboxes` list and `monitor` — [`build`] is
/// the single-machine reference caller.
pub fn spawn_server_pair(
    m: &mut Machine,
    cfg: &VolanoConfig,
    c2s: PipeId,
    s2c: PipeId,
    outbox: PipeId,
    outboxes: &Arc<[PipeId]>,
    monitor: &RoomMonitor,
) {
    let per_user_expected = (cfg.users_per_room * cfg.messages_per_user) as u32;
    m.spawn(
        &TaskSpec::named("server_rx").mm(SERVER_MM),
        Box::new(ServerRx {
            c2s,
            outboxes: Arc::clone(outboxes),
            to_read: cfg.messages_per_user as u32,
            monitor: Rc::clone(monitor),
            spins: 0,
            phase: SrvPhase::Reading,
            awaiting: false,
        }),
    );
    m.spawn(
        &TaskSpec::named("server_tx").mm(SERVER_MM),
        Box::new(ServerTx {
            outbox,
            s2c,
            expected: per_user_expected,
            forward: None,
            awaiting: false,
            dying: false,
        }),
    );
}

/// Pipes [`build`] creates: per user an outbox, `c2s` and `s2c`.
fn total_pipes(cfg: &VolanoConfig) -> usize {
    cfg.rooms * cfg.users_per_room * 3
}

/// Populates a machine with the VolanoMark topology.
pub fn build(m: &mut Machine, cfg: &VolanoConfig) {
    assert!(cfg.rooms > 0 && cfg.users_per_room > 0 && cfg.messages_per_user > 0);
    m.reserve(cfg.total_threads(), total_pipes(cfg));
    let users = cfg.users_per_room;
    for room in 0..cfg.rooms {
        let outboxes: Arc<[PipeId]> = (0..users).map(|_| m.create_pipe(PIPE_CAPACITY)).collect();
        let monitor = new_room_monitor();
        for user in 0..users {
            let c2s = m.create_pipe(PIPE_CAPACITY);
            let s2c = m.create_pipe(PIPE_CAPACITY);
            let tag = (room * users + user) as u64;
            spawn_client_pair(m, cfg, c2s, s2c, tag);
            spawn_server_pair(m, cfg, c2s, s2c, outboxes[user], &outboxes, &monitor);
        }
    }
}

/// Builds and runs VolanoMark on a fresh machine.
///
/// # Panics
///
/// Panics if the simulation deadlocks or exceeds its watchdog — both
/// indicate a bug, not a measurement.
pub fn run(machine_cfg: MachineConfig, sched: Box<dyn Scheduler>, cfg: &VolanoConfig) -> RunReport {
    let mut m = Machine::new(machine_cfg, sched);
    build(&mut m, cfg);
    m.run().expect("VolanoMark run must complete")
}

/// The benchmark metric: delivered messages per simulated second.
pub fn throughput(report: &RunReport) -> f64 {
    report.per_sec("messages")
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc::ElscScheduler;
    use elsc_sched_linux::LinuxScheduler;

    fn tiny() -> VolanoConfig {
        VolanoConfig {
            rooms: 1,
            users_per_room: 4,
            messages_per_user: 3,
            ..VolanoConfig::default()
        }
    }

    #[test]
    fn all_messages_are_delivered_reg_up() {
        let cfg = tiny();
        let r = run(
            MachineConfig::up().with_max_secs(100.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        assert_eq!(r.ledger.get("messages"), cfg.total_deliveries());
        assert!(throughput(&r) > 0.0);
    }

    #[test]
    fn all_messages_are_delivered_elsc_smp() {
        let cfg = tiny();
        let r = run(
            MachineConfig::smp(2).with_max_secs(100.0),
            Box::new(ElscScheduler::new()),
            &cfg,
        );
        assert_eq!(r.ledger.get("messages"), cfg.total_deliveries());
    }

    #[test]
    fn thread_count_matches_paper_formula() {
        let cfg = VolanoConfig::rooms(5);
        // "each room creates a total of 80 threads"
        assert_eq!(cfg.total_threads(), 5 * 80);
        let r = run(
            MachineConfig::up().with_max_secs(400.0),
            Box::new(ElscScheduler::new()),
            &VolanoConfig {
                rooms: 1,
                users_per_room: 2,
                messages_per_user: 1,
                ..VolanoConfig::default()
            },
        );
        assert_eq!(r.tasks_spawned, 8);
    }

    /// `build` sizes the machine's tables from `total_threads` and
    /// `total_pipes`; what it then spawns and creates must be exactly
    /// that, or the tables grow again (or hold memory nobody uses).
    #[test]
    fn the_reservation_matches_what_build_spawns_and_creates() {
        for (rooms, users) in [(1, 1), (1, 4), (3, 2), (2, 20)] {
            let cfg = VolanoConfig {
                rooms,
                users_per_room: users,
                messages_per_user: 1,
                ..VolanoConfig::default()
            };
            let mut m = Machine::new(MachineConfig::smp(2), Box::new(ElscScheduler::new()));
            let idle = m.tasks().total_spawned();
            build(&mut m, &cfg);
            let spawned = m.tasks().total_spawned() - idle;
            assert_eq!(
                spawned as usize,
                cfg.total_threads(),
                "{rooms}x{users} tasks"
            );
            // Pipe ids are dense, so the next one counts those created.
            let created = m.create_pipe(1).0 as usize;
            assert_eq!(created, total_pipes(&cfg), "{rooms}x{users} pipes");
        }
    }

    #[test]
    fn yields_occur() {
        let mut cfg = tiny();
        cfg.yield_prob = 0.5;
        cfg.messages_per_user = 5;
        let r = run(
            MachineConfig::up().with_max_secs(200.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        assert!(r.stats.total().yields > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let one = run(
            MachineConfig::up().with_seed(7).with_max_secs(100.0),
            Box::new(LinuxScheduler::new()),
            &tiny(),
        );
        let two = run(
            MachineConfig::up().with_seed(7).with_max_secs(100.0),
            Box::new(LinuxScheduler::new()),
            &tiny(),
        );
        assert_eq!(one.elapsed, two.elapsed);
        assert_eq!(one.stats.total().sched_calls, two.stats.total().sched_calls);
    }

    #[test]
    fn different_seeds_change_schedule() {
        let one = run(
            MachineConfig::up().with_seed(1).with_max_secs(100.0),
            Box::new(LinuxScheduler::new()),
            &tiny(),
        );
        let two = run(
            MachineConfig::up().with_seed(2).with_max_secs(100.0),
            Box::new(LinuxScheduler::new()),
            &tiny(),
        );
        assert_ne!(one.elapsed, two.elapsed);
    }
}
