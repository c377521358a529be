//! An Apache-like web server (the paper's §8 future work).
//!
//! "In the future, we would like to see how the ELSC scheduler performs in
//! other multithreaded environments. One such example is a web server
//! running Apache."
//!
//! Model: a pool of worker tasks blocks on a shared accept queue; client
//! tasks issue requests (write to the accept queue, read their private
//! response pipe) with think times in between. After every client
//! finishes, a coordinator feeds the workers poison pills so the run
//! terminates cleanly.

use std::cell::Cell;
use std::rc::Rc;

use elsc_ktask::{MmId, TaskSpec};
use elsc_machine::{Behavior, Machine, MachineConfig, Op, RunReport, SysView};
use elsc_netsim::{Msg, PipeId};
use elsc_sched_api::Scheduler;

/// Tag marking a worker shutdown message.
const POISON: u64 = u64::MAX;

/// Web-server workload parameters.
#[derive(Clone, Debug)]
pub struct HttpdConfig {
    /// Worker pool size (Apache `MaxClients` style).
    pub workers: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Server cycles to handle one request.
    pub handle_work: u64,
    /// Client cycles to build a request / consume a response.
    pub client_work: u64,
    /// Mean client think time between requests (sleep, cycles).
    pub think_cycles: u64,
    /// Accept-queue capacity.
    pub backlog: usize,
    /// Jitter fraction.
    pub jitter: f64,
}

impl Default for HttpdConfig {
    fn default() -> Self {
        HttpdConfig {
            workers: 8,
            clients: 64,
            requests_per_client: 10,
            handle_work: 150_000,
            client_work: 20_000,
            think_cycles: 2_000_000,
            backlog: 32,
            jitter: 0.3,
        }
    }
}

impl HttpdConfig {
    /// Total requests the run serves.
    pub fn total_requests(&self) -> u64 {
        (self.clients * self.requests_per_client) as u64
    }
}

/// Where a client is in its request cycle.
enum ClientState {
    /// Between requests: the next resume sends one, or reports.
    Thinking,
    /// The request write completed; the response read comes next.
    WroteRequest,
    /// Blocked on the response socket.
    AwaitingResponse,
    /// The completion report is written; exit comes next.
    Reporting,
}

/// A client: think, request, await response; finally report completion.
struct Client {
    accept: PipeId,
    response: PipeId,
    done: PipeId,
    id: u64,
    left: usize,
    state: ClientState,
    work: u64,
    think: u64,
    jitter: f64,
    /// When the in-flight request was issued, for response latency.
    sent_at: elsc_simcore::Cycles,
}

impl Client {
    /// Tells the coordinator this client is finished.
    fn report(&mut self) -> Op {
        self.state = ClientState::Reporting;
        Op::write_after(1_000, self.done, Msg::tagged(self.id))
    }
}

impl Behavior for Client {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        match self.state {
            ClientState::Thinking if self.left > 0 => {
                self.left -= 1;
                self.state = ClientState::WroteRequest;
                self.sent_at = sys.now;
                let work = sys.rng.jitter(self.work, self.jitter);
                Op::write_after(work, self.accept, Msg::tagged(self.id))
            }
            ClientState::Thinking => self.report(),
            ClientState::WroteRequest => {
                self.state = ClientState::AwaitingResponse;
                Op::read_after(1_000, self.response)
            }
            ClientState::AwaitingResponse if sys.last_read.is_some() => {
                self.state = ClientState::Thinking;
                sys.ledger.add("responses", 1);
                sys.dists.record(
                    "response_latency",
                    sys.now.saturating_sub(self.sent_at).get(),
                );
                let think = sys.rng.exp(self.think as f64) as u64;
                Op::sleep_after(sys.rng.jitter(self.work, self.jitter), think.max(1))
            }
            // The connection was reset under the read (chaos
            // `peer_reset`): like `volanomark::ClientRx`, a client that
            // sees EOF gives up its remaining requests instead of
            // re-reading a dead socket for ever.
            ClientState::AwaitingResponse => self.report(),
            ClientState::Reporting => Op::exit(),
        }
    }
}

/// Where a worker is in its accept/serve cycle.
enum WorkerState {
    /// Between requests: the next resume reads the accept queue.
    Idle,
    /// Blocked on the accept queue.
    Accepting,
    /// The accept queue died: closing the response sockets.
    Teardown,
}

/// A worker: serve requests from the accept queue until poisoned.
struct Worker {
    accept: PipeId,
    responses: Vec<PipeId>,
    work: u64,
    jitter: f64,
    state: WorkerState,
    /// Index of the next response socket to close, shared by the pool so
    /// a teardown closes each socket once, whichever workers run it.
    closed: Rc<Cell<usize>>,
}

impl Worker {
    /// Closes the next response socket nobody has closed yet, or exits.
    fn teardown(&mut self) -> Op {
        self.state = WorkerState::Teardown;
        let next = self.closed.get();
        match self.responses.get(next) {
            Some(&pipe) => {
                self.closed.set(next + 1);
                Op::close_after(200, pipe)
            }
            None => Op::exit(),
        }
    }
}

impl Behavior for Worker {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        match (&self.state, sys.last_read) {
            (WorkerState::Idle, _) => {
                self.state = WorkerState::Accepting;
                Op::read_after(2_000, self.accept)
            }
            (WorkerState::Accepting, Some(msg)) if msg.tag == POISON => Op::exit(),
            (WorkerState::Accepting, Some(msg)) => {
                self.state = WorkerState::Idle;
                sys.ledger.add("requests_served", 1);
                let work = sys.rng.jitter(self.work, self.jitter);
                let to = self.responses[msg.tag as usize];
                Op::write_after(work, to, Msg::tagged(msg.tag))
            }
            // The listening socket was reset: no request will arrive and
            // none in flight will be answered, so hang up on every client
            // — each then sees EOF instead of waiting for ever.
            (WorkerState::Accepting, None) | (WorkerState::Teardown, _) => self.teardown(),
        }
    }
}

/// Waits for all clients, then poisons the workers.
struct Coordinator {
    done: PipeId,
    accept: PipeId,
    clients_left: usize,
    poisons_left: usize,
    /// Whether the previous `resume` issued a read of `done`.
    awaiting: bool,
}

impl Behavior for Coordinator {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        if std::mem::take(&mut self.awaiting) && sys.last_read.is_none() {
            // The completion channel was reset, so the remaining clients
            // cannot be counted: stop the server the hard way. Closing
            // the accept queue sends every worker into its teardown.
            self.clients_left = 0;
            self.poisons_left = 0;
            return Op::close_after(500, self.accept);
        }
        if self.clients_left > 0 {
            self.clients_left -= 1;
            self.awaiting = true;
            return Op::read_after(1_000, self.done);
        }
        if self.poisons_left > 0 {
            self.poisons_left -= 1;
            return Op::write_after(500, self.accept, Msg::tagged(POISON));
        }
        Op::exit()
    }
}

/// Address spaces: one server process, one per client.
const HTTPD_MM: MmId = MmId(1);

/// Populates a machine with the web-server workload.
pub fn build(m: &mut Machine, cfg: &HttpdConfig) {
    assert!(cfg.workers > 0 && cfg.clients > 0);
    // Workers, clients and the coordinator; accept, done and one
    // response pipe per client.
    m.reserve(cfg.workers + cfg.clients + 1, cfg.clients + 2);
    let accept = m.create_pipe(cfg.backlog);
    let done = m.create_pipe(cfg.clients.max(1));
    let responses: Vec<PipeId> = (0..cfg.clients).map(|_| m.create_pipe(4)).collect();
    let closed = Rc::new(Cell::new(0));
    for _ in 0..cfg.workers {
        m.spawn(
            &TaskSpec::named("httpd").mm(HTTPD_MM),
            Box::new(Worker {
                accept,
                responses: responses.clone(),
                work: cfg.handle_work,
                jitter: cfg.jitter,
                state: WorkerState::Idle,
                closed: Rc::clone(&closed),
            }),
        );
    }
    for (id, &response) in responses.iter().enumerate() {
        m.spawn(
            &TaskSpec::named("client").mm(MmId(100 + id as u32)),
            Box::new(Client {
                accept,
                response,
                done,
                id: id as u64,
                left: cfg.requests_per_client,
                state: ClientState::Thinking,
                work: cfg.client_work,
                think: cfg.think_cycles,
                jitter: cfg.jitter,
                sent_at: elsc_simcore::Cycles::ZERO,
            }),
        );
    }
    m.spawn(
        &TaskSpec::named("apachectl").mm(HTTPD_MM),
        Box::new(Coordinator {
            done,
            accept,
            clients_left: cfg.clients,
            poisons_left: cfg.workers,
            awaiting: false,
        }),
    );
}

/// Builds and runs the web server on a fresh machine.
///
/// # Panics
///
/// Panics if the simulation deadlocks or times out (a harness bug).
pub fn run(machine_cfg: MachineConfig, sched: Box<dyn Scheduler>, cfg: &HttpdConfig) -> RunReport {
    let mut m = Machine::new(machine_cfg, sched);
    build(&mut m, cfg);
    m.run().expect("httpd run must complete")
}

/// Requests served per simulated second.
pub fn throughput(report: &RunReport) -> f64 {
    report.per_sec("requests_served")
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc::ElscScheduler;
    use elsc_sched_linux::LinuxScheduler;

    fn tiny() -> HttpdConfig {
        HttpdConfig {
            workers: 2,
            clients: 4,
            requests_per_client: 3,
            handle_work: 50_000,
            client_work: 10_000,
            think_cycles: 100_000,
            backlog: 4,
            jitter: 0.2,
        }
    }

    #[test]
    fn serves_every_request_reg() {
        let cfg = tiny();
        let r = run(
            MachineConfig::up().with_max_secs(60.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        assert_eq!(r.ledger.get("requests_served"), cfg.total_requests());
        assert_eq!(r.ledger.get("responses"), cfg.total_requests());
    }

    #[test]
    fn serves_every_request_elsc_smp() {
        let cfg = tiny();
        let r = run(
            MachineConfig::smp(2).with_max_secs(60.0),
            Box::new(ElscScheduler::new()),
            &cfg,
        );
        assert_eq!(r.ledger.get("requests_served"), cfg.total_requests());
    }

    #[test]
    fn worker_pool_terminates_via_poison() {
        let cfg = tiny();
        let r = run(
            MachineConfig::up().with_max_secs(60.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        // workers + clients + coordinator all exited.
        assert_eq!(r.tasks_spawned as usize, cfg.workers + cfg.clients + 1);
    }

    #[test]
    fn response_latency_is_recorded() {
        let cfg = tiny();
        let r = run(
            MachineConfig::up().with_max_secs(60.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        let lat = r.dists.get("response_latency").expect("latency recorded");
        assert_eq!(lat.count(), cfg.total_requests());
        assert!(lat.mean() > 0.0);
        // Built-in machine distributions exist as well.
        assert!(r.dists.get("wake_latency").is_some());
        assert!(r.dists.get("runqueue_len").is_some());
    }

    #[test]
    fn throughput_positive() {
        let r = run(
            MachineConfig::smp(2).with_max_secs(60.0),
            Box::new(ElscScheduler::new()),
            &tiny(),
        );
        assert!(throughput(&r) > 0.0);
    }
}
