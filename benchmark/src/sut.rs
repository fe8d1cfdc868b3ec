//! The TCP system under test: a `MapServer` (or a `Router` over two
//! backends) plus the one client `Session` that drives it in closed-loop
//! `submit_batch` + `wait_all` rounds.
//!
//! The router sometimes never forwards a job's terminal event to the
//! client's watch, although the backend finished the job (seen for cold
//! and cached jobs alike). A routed round whose events have not all
//! arrived after [`ROUTED_STALL`] therefore reconnects and fetches its
//! results with the `result` verb, which the router forwards to the
//! owning backend. Such rounds are counted as stalls; their wait stays
//! in the latency.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gmm_cluster::{Router, RouterOptions, ShardMap};
use gmm_service::{
    instance_key, ClientError, JobEvent, JobQueue, JobState, MapServer, QueueOptions,
    RemoteOutcome, Session, SubmitReceipt, SubmitSpec,
};
use gmm_workloads::StreamInstance;

use crate::inputs::{Workload, BATCH, SERVER_WORKERS};
use crate::trace::Tracer;

/// Patience for one round on a single node; a healthy round takes
/// milliseconds, so running out is an error.
pub const ROUND_TIMEOUT: Duration = Duration::from_secs(60);
/// Time after which a routed round is taken to have lost an event; a
/// routed round of cache hits takes about 10 ms on two cores.
pub const ROUTED_STALL: Duration = Duration::from_millis(50);

pub fn start_server(workers: usize, cache_cap: usize) -> Result<MapServer, String> {
    let mut opts = QueueOptions::default();
    opts.workers = workers;
    opts.cache_cap = cache_cap;
    MapServer::start("127.0.0.1:0", Arc::new(JobQueue::new(opts)))
        .map_err(|e| format!("bind a loopback mapsrv: {e}"))
}

pub fn stop_server(server: MapServer) {
    server.request_stop();
    server.join();
}

pub fn start_router(backends: &[MapServer]) -> Result<Router, String> {
    let addrs = backends
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    Router::start("127.0.0.1:0", RouterOptions::new(addrs))
        .map_err(|e| format!("bind the router: {e}"))
}

pub fn stop_router(router: Router) {
    router.request_stop();
    router.join();
}

/// A v2 session that asks for state frames only.
pub fn connect(addr: SocketAddr) -> Result<Session, String> {
    let mut s = Session::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.stream_progress(false);
    Ok(s)
}

/// Fetch a job's result, re-asking until it is terminal.
pub fn fetch(session: &mut Session, job: u64) -> Result<RemoteOutcome, String> {
    let deadline = Instant::now() + ROUND_TIMEOUT;
    loop {
        let out = session
            .result(job)
            .map_err(|e| format!("result {job}: {e}"))?;
        if out.state.is_terminal() {
            return Ok(out);
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "job {job} still {} after {ROUND_TIMEOUT:?}",
                out.state.as_str()
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Fill each backend's cache with the specs the router's ring gives it,
/// over direct connections: the cache state a fill through the router
/// leaves, without the router's lost events in the set-up time.
pub fn fill_owners(servers: &[MapServer], specs: Vec<SubmitSpec>) -> Result<(), String> {
    let names: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    // The router builds its ring with the default vnode count.
    let ring = ShardMap::new(&names, 0);
    let mut by_owner: Vec<Vec<SubmitSpec>> = vec![Vec::new(); servers.len()];
    for spec in specs {
        let owner = ring.owner(instance_key(&spec.design, &spec.board, &spec.config).0);
        let i = names
            .iter()
            .position(|n| n == owner)
            .expect("the ring holds only these backends");
        by_owner[i].push(spec);
    }
    for (server, specs) in servers.iter().zip(by_owner) {
        let mut direct = Sut::new(server.local_addr(), None, Vec::new())?;
        direct.prefill(specs)?;
        direct.stop();
    }
    Ok(())
}

pub struct Sut {
    addr: SocketAddr,
    session: Option<Session>,
    router: Option<Router>,
    servers: Vec<MapServer>,
    /// How long a round waits for its events (see [`ROUTED_STALL`]).
    patience: Duration,
    /// Routed rounds that lost an event and were recovered.
    pub stalls: u64,
}

impl Sut {
    /// Start the workload's server shape, connect the session and submit
    /// the whole pool once so the caches are filled before timing.
    pub fn start(w: Workload, pool: &[StreamInstance]) -> Result<Sut, String> {
        let config = w.config();
        let specs = pool
            .iter()
            .map(|inst| SubmitSpec::new(inst.design.clone(), inst.board.clone(), config.clone()))
            .collect();
        match w {
            Workload::RoutedHot => {
                // The same two workers as the single node, one per backend.
                let servers = vec![
                    start_server(SERVER_WORKERS / 2, w.cache_cap())?,
                    start_server(SERVER_WORKERS / 2, w.cache_cap())?,
                ];
                fill_owners(&servers, specs)?;
                let router = start_router(&servers)?;
                Sut::new(router.local_addr(), Some(router), servers)
            }
            _ => {
                let s = start_server(SERVER_WORKERS, w.cache_cap())?;
                let mut sut = Sut::new(s.local_addr(), None, vec![s])?;
                sut.prefill(specs)?;
                Ok(sut)
            }
        }
    }

    /// Solve every spec once, in rounds of [`BATCH`], so the caches hold
    /// them before timing.
    fn prefill(&mut self, mut specs: Vec<SubmitSpec>) -> Result<(), String> {
        while !specs.is_empty() {
            let rest = specs.split_off(BATCH.min(specs.len()));
            let r = self.round(specs).map_err(|e| format!("pre-fill: {e}"))?;
            if let Some(bad) = r.outcomes.iter().find(|o| o.state != JobState::Done) {
                return Err(format!(
                    "pre-fill job {} ended {}",
                    bad.job,
                    bad.state.as_str()
                ));
            }
            specs = rest;
        }
        Ok(())
    }

    /// A client of `addr` that owns (and on [`Sut::stop`] stops) `router`
    /// and `servers`.
    pub fn new(
        addr: SocketAddr,
        router: Option<Router>,
        servers: Vec<MapServer>,
    ) -> Result<Sut, String> {
        Ok(Sut {
            addr,
            session: Some(connect(addr)?),
            patience: if router.is_some() {
                ROUTED_STALL
            } else {
                ROUND_TIMEOUT
            },
            router,
            servers,
            stalls: 0,
        })
    }

    pub fn session(&mut self) -> &mut Session {
        self.session.as_mut().expect("session lives until stop")
    }

    /// Hang up and continue on a fresh connection.
    pub fn reconnect(&mut self) -> Result<(), String> {
        self.session = None;
        self.session = Some(connect(self.addr)?);
        Ok(())
    }

    pub fn router_reconnects(&self) -> u64 {
        self.router.as_ref().map_or(0, Router::reconnects)
    }

    /// Wait until every watched job is terminal. Returns whether
    /// the wait stalled and was recovered on a fresh connection.
    fn await_terminal(&mut self, on_event: impl FnMut(&JobEvent)) -> Result<bool, String> {
        let patience = self.patience;
        match self.session().for_each_event(patience, on_event) {
            Ok(()) => Ok(false),
            Err(ClientError::Expired { .. }) if self.router.is_some() => {
                self.stalls += 1;
                self.reconnect()?;
                Ok(true)
            }
            Err(e) => Err(format!("event wait: {e}")),
        }
    }

    /// Results of `receipts`, in order.
    fn results(
        &mut self,
        receipts: &[SubmitReceipt],
        stalled: bool,
    ) -> Result<Vec<RemoteOutcome>, String> {
        if stalled {
            return receipts
                .iter()
                .map(|r| fetch(self.session(), r.job))
                .collect();
        }
        self.session()
            .wait_all(ROUND_TIMEOUT)
            .map_err(|e| format!("wait_all: {e}"))
    }

    /// One closed-loop round: submit the batch, wait for every answer.
    pub fn round(&mut self, specs: Vec<SubmitSpec>) -> Result<Round, String> {
        let t0 = Instant::now();
        let receipts = self
            .session()
            .submit_batch(specs)
            .map_err(|e| format!("submit_batch: {e}"))?;
        let stalled = self.await_terminal(|_| {})?;
        let outcomes = self.results(&receipts, stalled)?;
        Ok(Round {
            outcomes,
            elapsed: t0.elapsed(),
        })
    }

    /// [`Sut::round`] with spans: the round, its three client calls, and,
    /// under the event wait, per job the queue wait (receipt to `running`
    /// event) and run (`running` to terminal event). Both are
    /// client-observed: an event is stamped when the client reads it, so a
    /// job the server finished while the client was still sending shows a
    /// short queue wait and a run that includes the rest. Jobs answered
    /// from the cache at submit have no `running` event and get neither
    /// span. `first_job` numbers the round's jobs in the trace.
    pub fn traced_round(
        &mut self,
        specs: Vec<SubmitSpec>,
        tr: &mut Tracer,
        first_job: u64,
    ) -> Result<Round, String> {
        let root = tr.open("round", 0, first_job);
        let t0 = Instant::now();
        let receipts = self
            .session()
            .submit_batch(specs)
            .map_err(|e| format!("submit_batch: {e}"))?;
        let t1 = Instant::now();
        tr.record("session.submit_batch", t0, t1, root, first_job);
        let mut running: HashMap<u64, Instant> = HashMap::new();
        let mut terminal: HashMap<u64, Instant> = HashMap::new();
        let stalled = self.await_terminal(|ev| {
            if let JobEvent::State { job, state, .. } = ev {
                let now = Instant::now();
                if *state == JobState::Running {
                    running.insert(*job, now);
                } else if state.is_terminal() {
                    terminal.insert(*job, now);
                }
            }
        })?;
        let t2 = Instant::now();
        let events = tr.record("session.events", t1, t2, root, first_job);
        let outcomes = self.results(&receipts, stalled)?;
        let t3 = Instant::now();
        tr.record("session.results", t2, t3, root, first_job);
        tr.close(root);
        for (i, r) in receipts.iter().enumerate() {
            let job = first_job + i as u64;
            if let Some(&run) = running.get(&r.job) {
                tr.record("service.queue_wait", t1, run.max(t1), events, job);
                let end = terminal.get(&r.job).copied().unwrap_or(t2);
                tr.record("service.run", run, end.max(run), events, job);
            }
        }
        Ok(Round {
            outcomes,
            elapsed: t3 - t0,
        })
    }

    /// Submit one spec, wait for it, fetch its result: the submit and
    /// result round-trip times in µs.
    pub fn single(&mut self, spec: SubmitSpec) -> Result<(f64, f64), String> {
        let t0 = Instant::now();
        let receipt = self
            .session()
            .submit(spec)
            .map_err(|e| format!("submit: {e}"))?;
        let submit = t0.elapsed().as_secs_f64() * 1e6;
        let stalled = self.await_terminal(|_| {})?;
        let t1 = Instant::now();
        let out = if stalled {
            fetch(self.session(), receipt.job)?
        } else {
            self.session()
                .result(receipt.job)
                .map_err(|e| format!("result: {e}"))?
        };
        let result = t1.elapsed().as_secs_f64() * 1e6;
        if out.solution.is_none() {
            return Err(format!(
                "job {} ended {} without a payload",
                out.job,
                out.state.as_str()
            ));
        }
        Ok((submit, result))
    }

    /// Drain the session's in-flight set (jobs [`Sut::single`] left).
    pub fn drain(&mut self) -> Result<(), String> {
        let patience = self.patience;
        match self.session().wait_all(patience) {
            Ok(_) => Ok(()),
            Err(ClientError::Expired { .. }) if self.router.is_some() => {
                self.stalls += 1;
                self.reconnect()
            }
            Err(e) => Err(format!("drain: {e}")),
        }
    }

    /// Close the client, then the router, then the daemons.
    pub fn stop(mut self) {
        drop(self.session.take());
        if let Some(r) = self.router.take() {
            stop_router(r);
        }
        for s in self.servers.drain(..) {
            stop_server(s);
        }
    }
}

/// What one round handed back.
pub struct Round {
    pub outcomes: Vec<RemoteOutcome>,
    pub elapsed: Duration,
}
