//! The `gmm route` front-end daemon: one protocol-v2 endpoint fanning
//! out to N `mapsrv` backends.
//!
//! ## Shape
//!
//! Each client connection gets its own set of backend links (so a slow
//! client never head-of-line-blocks another), its own bounded
//! [`Outbox`] (the daemon's rank-gated, drop-oldest event queue,
//! reused wholesale — responses and merged backend events leave in
//! production order through one writer thread), and its own view of
//! the ring (backends it has observed dying are dropped from *its*
//! ring immediately; fresh connections start from the configured set
//! and rediscover liveness by dialing).
//!
//! Each backend link is one TCP connection driven by a *pump* thread:
//! responses are handed over as text to whichever router thread is
//! mid-round-trip on that link (requests per link are serialized by a
//! mutex), while server-push event frames are remapped from backend job
//! ids to router job ids and pushed straight into the client's outbox.
//! The round trip decodes the answers the router inspects; a `result`
//! answer is relabelled with the router's job id and its payload bytes
//! copied through, never parsed into a tree. An answer that does not
//! decode, a `result` for another job and a round trip that times out
//! each close the link. When the pump sees EOF the backend is declared
//! lost: it leaves the ring, its in-flight jobs are re-submitted to the
//! keys' new owners, and the client's event stream continues seamlessly
//! — the outbox's rank gate squeezes out the replay of
//! `queued`/`running` transitions the re-submission causes.
//!
//! ## Job ids
//!
//! Router-issued ids embed the issuing backend:
//! `id = backend_job * 64 + backend_index` (index into
//! [`RouterOptions::backends`]; index 63 is reserved for jobs the
//! router answers itself, e.g. peer cache-fill hits). The encoding
//! makes `poll`/`result`/`attach` forwardable *statelessly*: a job
//! submitted on one router connection resolves from any other — or
//! from a freshly restarted router — without shared router state. Jobs
//! that were re-routed after a backend loss are the exception: their
//! mapping lives only in the connection that moved them, so a router
//! restart orphans exactly the jobs whose backend also died.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde_json::Value;

use gmm_api::Termination;
use gmm_service::events::{writer_loop, Outbox};
use gmm_service::hash::{instance_key, InstanceKey};
use gmm_service::protocol::{
    frame_too_long, is_event_line, read_frame, relabel_result, render_response, AttachSnapshot,
    FrameRead, JobEvent, ProtoVersions, Request, Response, ServiceStats, SubmitReceipt, SubmitSpec,
    CAPABILITIES, PROTO_VERSION,
};
use gmm_service::queue::JobState;

use crate::ring::ShardMap;

/// Most backends one router can front: ids reserve 6 bits for the
/// backend index, with one value kept for router-served jobs.
pub const MAX_BACKENDS: usize = 63;

/// The id slot for jobs the router answers itself (peer cache-fill
/// hits and structured failures that never reached a backend).
const LOCAL_IDX: usize = 63;

/// Per-round-trip patience on a backend link before the backend is
/// declared lost.
const LINK_TIMEOUT: Duration = Duration::from_secs(30);

/// Bounded retries against a backend answering `overloaded` before the
/// rejection is propagated (client-facing submits) or the job is
/// failed (re-routes after a backend loss).
const OVERLOAD_RETRIES: u32 = 5;

/// Cap on queued droppable frames per client connection (mirrors the
/// daemon's own outbox bound).
const EVENT_QUEUE_CAP: usize = 1024;

/// Cap on backend events buffered while their submit receipts are
/// still in flight (the pump can outrun the submit round-trip).
const PENDING_EVENT_CAP: usize = 512;

fn encode(backend_job: u64, idx: usize) -> u64 {
    backend_job * 64 + idx as u64
}

fn decode(rid: u64) -> (u64, usize) {
    (rid / 64, (rid % 64) as usize)
}

/// Configuration for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Backend `mapsrv` addresses. Order matters: the position is baked
    /// into router job ids, so restarts must keep the list stable.
    pub backends: Vec<String>,
    /// Ring points per backend; `0` uses [`crate::ring::DEFAULT_VNODES`].
    pub vnodes: usize,
    /// Before routing a submit, ask the key's *previous* ring owner for
    /// a cached solution via the non-promoting `peek` verb — the warm
    /// handoff that makes growing the ring cheap.
    pub peer_fill: bool,
}

impl RouterOptions {
    pub fn new(backends: Vec<String>) -> RouterOptions {
        RouterOptions {
            backends,
            vnodes: 0,
            peer_fill: false,
        }
    }
}

struct RouterShared {
    opts: RouterOptions,
    stop: AtomicBool,
    /// Backend connections declared lost (the soak's failover counter).
    reconnects: AtomicU64,
    /// In-flight jobs moved to a new owner after a backend loss.
    jobs_rerouted: AtomicU64,
    /// Submits answered from a peer's cache instead of a solve.
    peer_fills: AtomicU64,
    proto_v1: AtomicU64,
    proto_v2: AtomicU64,
    started: Instant,
}

/// The accepting front-end. Start with [`Router::start`], stop with
/// [`Router::request_stop`] (or a client `shutdown` verb) and reap
/// with [`Router::join`].
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
}

impl Router {
    pub fn start(addr: impl ToSocketAddrs, opts: RouterOptions) -> std::io::Result<Router> {
        if opts.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "route: at least one backend is required",
            ));
        }
        if opts.backends.len() > MAX_BACKENDS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("route: at most {MAX_BACKENDS} backends are supported"),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(RouterShared {
            opts,
            stop: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
            jobs_rerouted: AtomicU64::new(0),
            peer_fills: AtomicU64::new(0),
            proto_v1: AtomicU64::new(0),
            proto_v2: AtomicU64::new(0),
            started: Instant::now(),
        });
        let accept_shared = shared.clone();
        let accept = thread::spawn(move || accept_loop(listener, local, accept_shared));
        Ok(Router {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Backend connections declared lost so far (each loss triggers one
    /// failover pass for that connection's in-flight jobs).
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Acquire)
    }

    /// In-flight jobs re-submitted to a new owner after a backend loss.
    pub fn jobs_rerouted(&self) -> u64 {
        self.shared.jobs_rerouted.load(Ordering::Acquire)
    }

    /// Submits answered from a peer backend's cache via `peek`.
    pub fn peer_fills(&self) -> u64 {
        self.shared.peer_fills.load(Ordering::Acquire)
    }

    /// Whether a `shutdown` verb has been received.
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Block until a client sends `shutdown`.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Ask the acceptor to stop from this process.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        wake_acceptor(self.addr);
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.request_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// The blocked `accept()` only returns when a connection arrives, so
/// the stop path opens (and immediately drops) one.
fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: TcpListener, local: SocketAddr, shared: Arc<RouterShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Small JSON-lines frames; Nagle would add ~40ms per round-trip.
        let _ = stream.set_nodelay(true);
        let shared = shared.clone();
        thread::spawn(move || serve_connection(stream, local, shared));
    }
}

/// One routed job, keyed by its router id.
struct Routed {
    /// The original submission, kept so the job can be re-routed if its
    /// backend dies. `None` for jobs adopted via `attach` (the router
    /// never saw their spec) — those cannot be re-routed.
    spec: Option<SubmitSpec>,
    /// Routing key (raw instance key; see the peer-fill caveat in
    /// ARCHITECTURE.md — it matches the backend's ticket key under
    /// default queue options).
    key: InstanceKey,
    /// Whether the client wanted progress frames at submit time (the
    /// re-route resubscribes with the same flag).
    progress: bool,
    /// Owning backend; `None` while in transit during a re-route, and
    /// permanently for router-served jobs.
    backend: Option<String>,
    backend_job: u64,
    state: JobState,
    termination: Option<Termination>,
    cached: bool,
    /// Payload for router-served jobs (peer fill) and structured
    /// failures, answered locally by `result`.
    objective: Option<f64>,
    solution: Option<Value>,
    error: Option<String>,
}

struct ConnState {
    ring: ShardMap,
    links: HashMap<String, Arc<Link>>,
    jobs: HashMap<u64, Routed>,
    /// `(backend addr, backend job) -> router id`, the event remap.
    by_backend: HashMap<(String, u64), u64>,
    /// Backend events that raced ahead of their submit receipts.
    pending: Vec<(String, JobEvent)>,
    /// Sequence for router-served (`LOCAL_IDX`) job ids.
    local_seq: u64,
    /// Whether this client opted into `stats` event frames; sticky, and
    /// replayed onto every link (including ones dialed later).
    client_stats: bool,
}

struct Conn {
    shared: Arc<RouterShared>,
    outbox: Arc<Outbox>,
    dropped: Arc<AtomicU64>,
    state: Mutex<ConnState>,
    /// Serializes link dialing so two threads missing the same backend
    /// don't race a duplicate connection (and a duplicate pump).
    dial: Mutex<()>,
    /// Set at client teardown: pumps dying because *we* closed their
    /// sockets must not trigger failover.
    closing: AtomicBool,
}

/// One TCP connection to a backend. Requests are serialized by the
/// channel mutex; the pump thread owns the read half and feeds
/// response lines back through `resp`.
struct Link {
    addr: String,
    alive: AtomicBool,
    /// A second handle on the socket so teardown can unblock the pump
    /// without waiting on the round-trip mutex.
    sock: TcpStream,
    chan: Mutex<LinkChannel>,
}

struct LinkChannel {
    writer: TcpStream,
    resp: mpsc::Receiver<String>,
}

impl Link {
    /// Send `request` and wait for the answer's line. A round trip that
    /// times out closes the link, so that a late answer can never be
    /// taken for the next request's; the pump's EOF then declares the
    /// backend lost.
    fn exchange(&self, request: &Request) -> Result<String, String> {
        if !self.alive.load(Ordering::Acquire) {
            return Err(format!("backend {} is down", self.addr));
        }
        let mut chan = self.chan.lock();
        let mut text =
            serde_json::to_string(request).expect("in-tree serde_json cannot fail to render");
        text.push('\n');
        chan.writer
            .write_all(text.as_bytes())
            .and_then(|_| chan.writer.flush())
            .map_err(|e| format!("backend {}: {e}", self.addr))?;
        match chan.resp.recv_timeout(LINK_TIMEOUT) {
            Ok(line) => Ok(line),
            Err(_) => {
                self.close();
                Err(format!("backend {}: no response", self.addr))
            }
        }
    }

    /// [`Link::exchange`], the answer decoded.
    fn roundtrip(&self, request: &Request) -> Result<Response, String> {
        let line = self.exchange(request)?;
        serde_json::from_str(&line).map_err(|e| self.fault(e))
    }

    /// `result` for backend job `asked`, relabelled as the answer for
    /// router job `rid` without parsing its payload ([`relabel_result`]):
    /// the frame, and the state it reports (`None` for a refusal).
    fn result(&self, asked: u64, rid: u64) -> Result<(Option<JobState>, String), String> {
        let line = self.exchange(&Request::Result { job: asked })?;
        relabel_result(&line, asked, rid).map_err(|e| self.fault(e))
    }

    /// Close the link over an answer that broke the protocol, so that the
    /// pump's EOF declares the backend lost at once.
    fn fault(&self, e: impl std::fmt::Display) -> String {
        let message = format!("backend {}: bad answer: {e}", self.addr);
        eprintln!("route: {message}");
        self.close();
        message
    }

    fn close(&self) {
        self.alive.store(false, Ordering::Release);
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// Dial `addr`, negotiate protocol v2, and start its pump thread.
fn dial(conn: &Arc<Conn>, addr: &str) -> Result<Arc<Link>, String> {
    let io_err = |e: std::io::Error| format!("backend {addr}: {e}");
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(io_err)?);
    let mut writer = stream.try_clone().map_err(io_err)?;
    let mut hello = serde_json::to_string(&Request::Hello {
        proto: PROTO_VERSION,
    })
    .expect("in-tree serde_json cannot fail to render");
    hello.push('\n');
    writer
        .write_all(hello.as_bytes())
        .and_then(|_| writer.flush())
        .map_err(io_err)?;
    let mut buf = Vec::new();
    let line = match read_frame(&mut reader, &mut buf).map_err(io_err)? {
        FrameRead::Line(line) => line,
        FrameRead::TooLong => return Err(format!("backend {addr}: over-long handshake line")),
        FrameRead::Eof => return Err(format!("backend {addr} closed during handshake")),
    };
    match serde_json::from_str::<Response>(line) {
        Ok(Response::Welcome { proto, .. }) if proto >= 2 => {}
        Ok(_) => return Err(format!("backend {addr} does not speak protocol v2")),
        Err(e) => return Err(format!("backend {addr}: bad handshake: {e}")),
    }
    let (tx, rx) = mpsc::channel();
    let link = Arc::new(Link {
        addr: addr.to_string(),
        alive: AtomicBool::new(true),
        sock: stream,
        chan: Mutex::new(LinkChannel { writer, resp: rx }),
    });
    let pump_conn = conn.clone();
    let pump_addr = addr.to_string();
    thread::spawn(move || pump(pump_conn, pump_addr, reader, tx));
    Ok(link)
}

/// The live link to `addr`, dialing one if needed.
fn ensure_link(conn: &Arc<Conn>, addr: &str) -> Result<Arc<Link>, String> {
    if let Some(l) = conn.state.lock().links.get(addr) {
        if l.alive.load(Ordering::Acquire) {
            return Ok(l.clone());
        }
    }
    let _guard = conn.dial.lock();
    if let Some(l) = conn.state.lock().links.get(addr) {
        if l.alive.load(Ordering::Acquire) {
            return Ok(l.clone());
        }
    }
    let link = dial(conn, addr)?;
    let want_stats = {
        let mut st = conn.state.lock();
        st.links.insert(addr.to_string(), link.clone());
        st.client_stats
    };
    if want_stats {
        let _ = link.roundtrip(&Request::Watch {
            jobs: vec![],
            progress: true,
            stats: true,
        });
    }
    Ok(link)
}

/// Reader thread for one backend link: hands response lines, undecoded,
/// to the waiting round-trip and routes event frames into the client's
/// outbox. EOF, a read error or a line longer than
/// [`MAX_FRAME_BYTES`](gmm_service::protocol::MAX_FRAME_BYTES) declares
/// the backend lost, so a backend can never make the router buffer a
/// line without bound.
fn pump(
    conn: Arc<Conn>,
    addr: String,
    mut reader: BufReader<TcpStream>,
    resp: mpsc::Sender<String>,
) {
    let mut buf = Vec::new();
    while let Ok(FrameRead::Line(line)) = read_frame(&mut reader, &mut buf) {
        if line.trim().is_empty() {
            continue;
        }
        if is_event_line(line) {
            if let Ok(ev) = serde_json::from_str(line) {
                on_backend_event(&conn, &addr, ev);
            }
        } else {
            // A dropped receiver means no round-trip is waiting; the
            // frame is stale.
            let _ = resp.send(line.to_string());
        }
    }
    fail_over(&conn, &addr);
}

/// Remap a backend push frame to router ids and forward it.
fn on_backend_event(conn: &Arc<Conn>, addr: &str, ev: JobEvent) {
    let mapped = {
        let mut st = conn.state.lock();
        match &ev {
            // Queue-level frames carry no job id; the outbox gates the
            // client's opt-in.
            JobEvent::Stats(_) => Some(ev.clone()),
            JobEvent::State {
                job,
                state,
                termination,
            } => match st.by_backend.get(&(addr.to_string(), *job)).copied() {
                Some(rid) => match st.jobs.get_mut(&rid) {
                    // Ignore frames from a backend this job was already
                    // moved away from, and stale ones: a `queued` frame
                    // parked before its receipt can be replayed after the
                    // live terminal frame, and must not move the record
                    // (which later watch snapshots read) back. An equal
                    // rank passes, so a terminal frame still fills in the
                    // termination a terminal receipt lacks.
                    Some(r)
                        if r.backend.as_deref() == Some(addr) && state.rank() >= r.state.rank() =>
                    {
                        r.state = *state;
                        r.termination = *termination;
                        Some(JobEvent::State {
                            job: rid,
                            state: *state,
                            termination: *termination,
                        })
                    }
                    _ => None,
                },
                // The receipt for this job is still in flight; buffer
                // the frame for replay once the mapping lands.
                None => {
                    if st.pending.len() < PENDING_EVENT_CAP {
                        st.pending.push((addr.to_string(), ev.clone()));
                    }
                    None
                }
            },
            JobEvent::Progress { job, frame } => st
                .by_backend
                .get(&(addr.to_string(), *job))
                .copied()
                .map(|rid| JobEvent::Progress {
                    job: rid,
                    frame: frame.clone(),
                }),
        }
    };
    if let Some(ev) = mapped {
        conn.outbox.push_event(&ev);
    }
}

/// Replay events that arrived before their submit receipts.
fn drain_pending(conn: &Arc<Conn>) {
    let pending = {
        let mut st = conn.state.lock();
        std::mem::take(&mut st.pending)
    };
    for (addr, ev) in pending {
        on_backend_event(conn, &addr, ev);
    }
}

/// Declare `addr` lost: drop it from this connection's ring and move
/// its in-flight jobs to the keys' new owners. Idempotent — the pump
/// and a failed round-trip may both report the same loss.
fn fail_over(conn: &Arc<Conn>, addr: &str) {
    if conn.closing.load(Ordering::Acquire) {
        return;
    }
    let affected = {
        let mut st = conn.state.lock();
        let link = st.links.remove(addr);
        let on_ring = st.ring.nodes().iter().any(|n| n == addr);
        if link.is_none() && !on_ring {
            return; // already handled
        }
        if let Some(l) = &link {
            l.close();
        }
        st.ring = st.ring.without(addr);
        st.by_backend.retain(|(a, _), _| a != addr);
        st.pending.retain(|(a, _)| a != addr);
        let mut affected = Vec::new();
        for (&rid, r) in st.jobs.iter_mut() {
            if r.backend.as_deref() == Some(addr) && !r.state.is_terminal() {
                r.backend = None;
                affected.push(rid);
            }
        }
        affected
    };
    let total = conn.shared.reconnects.fetch_add(1, Ordering::AcqRel) + 1;
    eprintln!(
        "route: backend {addr} lost; re-routing {} job(s) (reconnects={total})",
        affected.len()
    );
    if affected.is_empty() {
        return;
    }
    conn.shared
        .jobs_rerouted
        .fetch_add(affected.len() as u64, Ordering::Relaxed);
    resubmit(conn, affected);
}

/// Move jobs whose backend died to the ring's new owners, keeping
/// their router ids (the event remap absorbs the new backend ids).
fn resubmit(conn: &Arc<Conn>, rids: Vec<u64>) {
    for rid in rids {
        let planned = {
            let st = conn.state.lock();
            st.jobs
                .get(&rid)
                .map(|r| (r.spec.clone(), r.key, r.progress))
        };
        let Some((spec, key, progress)) = planned else {
            continue;
        };
        let Some(spec) = spec else {
            fail_job(
                conn,
                rid,
                "backend lost; job was adopted via attach and cannot be re-routed",
            );
            continue;
        };
        let mut overload_tries = 0u32;
        loop {
            let owner = {
                let st = conn.state.lock();
                if st.ring.is_empty() {
                    None
                } else {
                    Some(st.ring.owner(key.0).to_string())
                }
            };
            let Some(owner) = owner else {
                fail_job(conn, rid, "backend lost and no live replacement remains");
                break;
            };
            let link = match ensure_link(conn, &owner) {
                Ok(l) => l,
                Err(_) => {
                    fail_over(conn, &owner);
                    continue;
                }
            };
            match link.roundtrip(&Request::SubmitBatch {
                jobs: vec![spec.clone()],
                watch: true,
                progress,
            }) {
                Ok(Response::BatchSubmitted { jobs }) if jobs.len() == 1 => {
                    let receipt = &jobs[0];
                    let recorded = {
                        let mut st = conn.state.lock();
                        // The pump may have declared this very owner
                        // lost between the response and here; recording
                        // then would strand the job on a dead backend.
                        if link.alive.load(Ordering::Acquire) {
                            st.by_backend.insert((owner.clone(), receipt.job), rid);
                            if let Some(r) = st.jobs.get_mut(&rid) {
                                r.backend = Some(owner.clone());
                                r.backend_job = receipt.job;
                                if receipt.state.is_terminal() {
                                    r.state = receipt.state;
                                    r.cached = receipt.cached;
                                }
                            }
                            true
                        } else {
                            false
                        }
                    };
                    if !recorded {
                        continue;
                    }
                    if receipt.state.is_terminal() {
                        conn.outbox.push_event(&JobEvent::State {
                            job: rid,
                            state: receipt.state,
                            termination: None,
                        });
                    }
                    drain_pending(conn);
                    break;
                }
                Ok(Response::Overloaded {
                    message,
                    retry_after_ms,
                    ..
                }) => {
                    overload_tries += 1;
                    if overload_tries >= OVERLOAD_RETRIES {
                        fail_job(conn, rid, &message);
                        break;
                    }
                    thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                }
                Ok(Response::Error { message }) => {
                    fail_job(conn, rid, &message);
                    break;
                }
                Ok(_) => {
                    fail_job(conn, rid, "unexpected response to re-routed submit");
                    break;
                }
                Err(_) => {
                    fail_over(conn, &owner);
                    continue;
                }
            }
        }
    }
}

/// Terminate `rid` in the structured `failed` state at the router.
fn fail_job(conn: &Arc<Conn>, rid: u64, msg: &str) {
    {
        let mut st = conn.state.lock();
        let Some(r) = st.jobs.get_mut(&rid) else {
            return;
        };
        if r.state.is_terminal() {
            return;
        }
        r.state = JobState::Failed;
        r.error = Some(msg.to_string());
        r.backend = None;
    }
    conn.outbox.push_event(&JobEvent::State {
        job: rid,
        state: JobState::Failed,
        termination: None,
    });
}

fn idx_of(shared: &RouterShared, addr: &str) -> usize {
    shared
        .opts
        .backends
        .iter()
        .position(|b| b == addr)
        .expect("ring owners come from the configured backend list")
}

fn alloc_local(st: &mut ConnState) -> u64 {
    let rid = encode(st.local_seq, LOCAL_IDX);
    st.local_seq += 1;
    rid
}

/// Cancel-and-forget receipts and drop tracking for a batch a hot
/// shard forced us to shed — a batch is admitted or shed *whole*, at
/// the router exactly like at a single daemon.
fn rollback(conn: &Arc<Conn>, created: &[u64], submitted: &[(Arc<Link>, u64)]) {
    for (link, backend_job) in submitted {
        let _ = link.roundtrip(&Request::Cancel { job: *backend_job });
    }
    let mut st = conn.state.lock();
    for rid in created {
        st.jobs.remove(rid);
    }
    st.by_backend.retain(|_, rid| !created.contains(rid));
}

/// The fan-out path behind `submit` and `submit_batch`.
fn handle_submit_batch(
    conn: &Arc<Conn>,
    specs: Vec<SubmitSpec>,
    watch: bool,
    progress: bool,
) -> Response {
    if specs.is_empty() {
        return Response::BatchSubmitted { jobs: vec![] };
    }
    let keys: Vec<InstanceKey> = specs
        .iter()
        .map(|s| instance_key(&s.design, &s.board, &s.config))
        .collect();
    let n = specs.len();
    let mut slots: Vec<Option<SubmitReceipt>> = (0..n).map(|_| None).collect();
    // Rollback ledger, in case a hot shard sheds the batch.
    let mut created: Vec<u64> = Vec::new();
    let mut submitted: Vec<(Arc<Link>, u64)> = Vec::new();

    // Peer cache-fill: before paying a solve, ask the key's previous
    // owner — the node that owned it before the last ring resize —
    // whether it already holds the answer. `peek` never promotes or
    // counts, so misses leave the peer's cache untouched.
    if conn.shared.opts.peer_fill {
        for i in 0..n {
            let prev = {
                let st = conn.state.lock();
                st.ring.previous_owner(keys[i].0).map(str::to_string)
            };
            // `None` iff fewer than two nodes remain — no peers at all.
            let Some(prev) = prev else { break };
            let Ok(link) = ensure_link(conn, &prev) else {
                continue;
            };
            let Ok(Response::Peeked {
                hit: true,
                objective,
                solution,
            }) = link.roundtrip(&Request::Peek {
                key: keys[i].to_hex(),
            })
            else {
                continue;
            };
            let rid = {
                let mut st = conn.state.lock();
                let rid = alloc_local(&mut st);
                st.jobs.insert(
                    rid,
                    Routed {
                        spec: Some(specs[i].clone()),
                        key: keys[i],
                        progress,
                        backend: None,
                        backend_job: 0,
                        state: JobState::Done,
                        termination: None,
                        cached: true,
                        objective,
                        solution,
                        error: None,
                    },
                );
                rid
            };
            conn.shared.peer_fills.fetch_add(1, Ordering::Relaxed);
            created.push(rid);
            slots[i] = Some(SubmitReceipt {
                job: rid,
                state: JobState::Done,
                cached: true,
                key: keys[i].to_hex(),
            });
        }
    }

    // Route the rest to their ring owners, one sub-batch per backend.
    // A lost backend shrinks the ring and sends its indices back
    // through the loop for the new owners.
    let mut queue: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
    while !queue.is_empty() {
        let grouped: Option<Vec<(String, Vec<usize>)>> = {
            let st = conn.state.lock();
            if st.ring.is_empty() {
                None
            } else {
                let mut by_owner: Vec<(String, Vec<usize>)> = Vec::new();
                for &i in &queue {
                    let owner = st.ring.owner(keys[i].0).to_string();
                    match by_owner.iter_mut().find(|(a, _)| *a == owner) {
                        Some((_, v)) => v.push(i),
                        None => by_owner.push((owner, vec![i])),
                    }
                }
                Some(by_owner)
            }
        };
        let Some(grouped) = grouped else {
            rollback(conn, &created, &submitted);
            return Response::Error {
                message: "route: no live backend to route to".into(),
            };
        };
        queue.clear();
        for (owner, idxs) in grouped {
            let link = match ensure_link(conn, &owner) {
                Ok(l) => l,
                Err(_) => {
                    fail_over(conn, &owner);
                    queue.extend(idxs);
                    continue;
                }
            };
            let request = Request::SubmitBatch {
                jobs: idxs.iter().map(|&i| specs[i].clone()).collect(),
                watch: true,
                progress,
            };
            let mut overload_tries = 0u32;
            loop {
                match link.roundtrip(&request) {
                    Ok(Response::BatchSubmitted { jobs }) if jobs.len() == idxs.len() => {
                        let bidx = idx_of(&conn.shared, &owner);
                        let recorded = {
                            let mut st = conn.state.lock();
                            // If the pump just declared this owner lost,
                            // recording would strand the jobs; requeue
                            // them for the shrunken ring instead.
                            if link.alive.load(Ordering::Acquire) {
                                for (&i, receipt) in idxs.iter().zip(&jobs) {
                                    let rid = encode(receipt.job, bidx);
                                    st.jobs.insert(
                                        rid,
                                        Routed {
                                            spec: Some(specs[i].clone()),
                                            key: keys[i],
                                            progress,
                                            backend: Some(owner.clone()),
                                            backend_job: receipt.job,
                                            state: receipt.state,
                                            termination: None,
                                            cached: receipt.cached,
                                            objective: None,
                                            solution: None,
                                            error: None,
                                        },
                                    );
                                    st.by_backend.insert((owner.clone(), receipt.job), rid);
                                    created.push(rid);
                                    submitted.push((link.clone(), receipt.job));
                                    slots[i] = Some(SubmitReceipt {
                                        job: rid,
                                        state: receipt.state,
                                        cached: receipt.cached,
                                        key: receipt.key.clone(),
                                    });
                                }
                                true
                            } else {
                                false
                            }
                        };
                        if recorded {
                            drain_pending(conn);
                        } else {
                            queue.extend(idxs.iter().copied());
                        }
                        break;
                    }
                    Ok(Response::Overloaded {
                        message,
                        inflight,
                        max_inflight,
                        retry_after_ms,
                    }) => {
                        overload_tries += 1;
                        if overload_tries >= OVERLOAD_RETRIES {
                            // Propagate the structured rejection: the
                            // hot shard sheds this client's load while
                            // other routers' cold shards keep working.
                            rollback(conn, &created, &submitted);
                            return Response::Overloaded {
                                message,
                                inflight,
                                max_inflight,
                                retry_after_ms,
                            };
                        }
                        thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                    }
                    Ok(Response::Error { message }) => {
                        // The backend rejected these specs outright;
                        // surface per-job structured failures.
                        let mut st = conn.state.lock();
                        for &i in &idxs {
                            let rid = alloc_local(&mut st);
                            st.jobs.insert(
                                rid,
                                Routed {
                                    spec: Some(specs[i].clone()),
                                    key: keys[i],
                                    progress,
                                    backend: None,
                                    backend_job: 0,
                                    state: JobState::Failed,
                                    termination: None,
                                    cached: false,
                                    objective: None,
                                    solution: None,
                                    error: Some(message.clone()),
                                },
                            );
                            created.push(rid);
                            slots[i] = Some(SubmitReceipt {
                                job: rid,
                                state: JobState::Failed,
                                cached: false,
                                key: keys[i].to_hex(),
                            });
                        }
                        break;
                    }
                    Ok(_) | Err(_) => {
                        fail_over(conn, &owner);
                        queue.extend(idxs.iter().copied());
                        break;
                    }
                }
            }
        }
    }

    // Register the watch only now that every sub-batch landed: doing it
    // earlier would leak `queued` frames for jobs an overload rollback
    // then removes. The snapshot frame each registration pushes carries
    // whatever state the job has *now*, so nothing is lost — a backend
    // transition in the gap is simply folded into the snapshot.
    if watch {
        let rids: Vec<u64> = slots
            .iter()
            .map(|s| s.as_ref().expect("every slot is filled").job)
            .collect();
        let st = conn.state.lock();
        conn.outbox.watch(&rids, progress, |job| {
            st.jobs.get(&job).map(|r| (r.state, r.termination))
        });
    }
    drain_pending(conn);
    Response::BatchSubmitted {
        jobs: slots
            .into_iter()
            .map(|s| s.expect("every slot is filled"))
            .collect(),
    }
}

/// Turn on `stats` event forwarding for this client: tag the outbox
/// and subscribe every live link (new links subscribe on dial).
fn enable_stats(conn: &Arc<Conn>) {
    let links: Vec<Arc<Link>> = {
        let mut st = conn.state.lock();
        if st.client_stats {
            return;
        }
        st.client_stats = true;
        st.links.values().cloned().collect()
    };
    conn.outbox.set_stats(true);
    for link in links {
        let _ = link.roundtrip(&Request::Watch {
            jobs: vec![],
            progress: true,
            stats: true,
        });
    }
}

fn handle_watch(conn: &Arc<Conn>, jobs: Vec<u64>, progress: bool, stats: bool) -> Response {
    if stats {
        enable_stats(conn);
    }
    let st = conn.state.lock();
    let known: Vec<u64> = jobs
        .iter()
        .copied()
        .filter(|rid| st.jobs.contains_key(rid))
        .collect();
    let unknown: Vec<u64> = jobs
        .iter()
        .copied()
        .filter(|rid| !st.jobs.contains_key(rid))
        .collect();
    let (watching, _) = conn.outbox.watch(&known, progress, |job| {
        st.jobs.get(&job).map(|r| (r.state, r.termination))
    });
    Response::Watching { watching, unknown }
}

/// A connection that never issued `rid` can still attach to it: the id
/// embeds the issuing backend, so the router adopts the job by
/// forwarding `attach` there. This is what lets a client resume its
/// stream through a *router* restart, not just a backend one.
fn adopt(conn: &Arc<Conn>, rid: u64) -> Option<AttachSnapshot> {
    let (backend_job, idx) = decode(rid);
    if idx >= conn.shared.opts.backends.len() {
        return None;
    }
    let addr = conn.shared.opts.backends[idx].clone();
    let live = {
        let st = conn.state.lock();
        st.ring.nodes().contains(&addr)
    };
    if !live {
        return None;
    }
    let link = ensure_link(conn, &addr).ok()?;
    match link.roundtrip(&Request::Attach {
        jobs: vec![backend_job],
        progress: true,
        stats: false,
    }) {
        Ok(Response::Attached { attached, .. }) if attached.len() == 1 => {
            let snap = attached[0];
            {
                let mut st = conn.state.lock();
                st.jobs.insert(
                    rid,
                    Routed {
                        spec: None,
                        key: InstanceKey(0),
                        progress: true,
                        backend: Some(addr.clone()),
                        backend_job,
                        state: snap.state,
                        termination: snap.termination,
                        cached: false,
                        objective: None,
                        solution: None,
                        error: None,
                    },
                );
                st.by_backend.insert((addr, backend_job), rid);
            }
            drain_pending(conn);
            Some(AttachSnapshot {
                job: rid,
                state: snap.state,
                termination: snap.termination,
            })
        }
        _ => None,
    }
}

fn handle_attach(conn: &Arc<Conn>, jobs: Vec<u64>, progress: bool, stats: bool) -> Response {
    if stats {
        enable_stats(conn);
    }
    let mut attached: Vec<AttachSnapshot> = Vec::new();
    let mut unknown: Vec<u64> = Vec::new();
    let mut register: Vec<u64> = Vec::new();
    for rid in jobs {
        let known = {
            let st = conn.state.lock();
            st.jobs.get(&rid).map(|r| (r.state, r.termination))
        };
        if let Some((state, termination)) = known {
            attached.push(AttachSnapshot {
                job: rid,
                state,
                termination,
            });
            register.push(rid);
            continue;
        }
        match adopt(conn, rid) {
            Some(snap) => {
                attached.push(snap);
                register.push(rid);
            }
            None => unknown.push(rid),
        }
    }
    {
        let st = conn.state.lock();
        conn.outbox.watch(&register, progress, |job| {
            st.jobs.get(&job).map(|r| (r.state, r.termination))
        });
    }
    Response::Attached { attached, unknown }
}

enum JobVerb {
    Poll,
    Result,
    Cancel,
}

/// Forward a v1-style per-job verb to the owning backend, remapping
/// ids both ways, and return the answer's frame. Router-served jobs
/// answer locally; ids unknown to this connection forward statelessly
/// via the id encoding.
fn forward_job_verb(conn: &Arc<Conn>, rid: u64, verb: JobVerb) -> String {
    let route = {
        let st = conn.state.lock();
        match st.jobs.get(&rid) {
            Some(r) if r.backend.is_none() => {
                return render_response(&match verb {
                    JobVerb::Poll => Response::PollState {
                        job: rid,
                        state: r.state,
                    },
                    JobVerb::Cancel => Response::CancelState {
                        job: rid,
                        state: r.state,
                    },
                    JobVerb::Result => Response::ResultReady {
                        job: rid,
                        state: r.state,
                        cached: r.cached,
                        objective: r.objective,
                        solution: r.solution.clone(),
                        error: r.error.clone(),
                    },
                });
            }
            Some(r) => Some((r.backend.clone().expect("checked above"), r.backend_job)),
            None => None,
        }
    };
    let (addr, backend_job) = match route {
        Some(pair) => pair,
        None => {
            let (backend_job, idx) = decode(rid);
            if idx >= conn.shared.opts.backends.len() {
                return render_response(&Response::Error {
                    message: format!("unknown job {rid}"),
                });
            }
            (conn.shared.opts.backends[idx].clone(), backend_job)
        }
    };
    let link = match ensure_link(conn, &addr) {
        Ok(l) => l,
        Err(_) => return recover_job_verb(conn, rid, &addr, verb),
    };
    let answer = match verb {
        JobVerb::Poll => link
            .roundtrip(&Request::Poll { job: backend_job })
            .map(|resp| render_response(&remap_job(resp, rid))),
        JobVerb::Cancel => link
            .roundtrip(&Request::Cancel { job: backend_job })
            .map(|resp| render_response(&remap_job(resp, rid))),
        JobVerb::Result => link.result(backend_job, rid).map(|(_, frame)| frame),
    };
    answer.unwrap_or_else(|_| recover_job_verb(conn, rid, &addr, verb))
}

/// A job verb hit a dead backend: declare the loss (re-routing its
/// in-flight jobs), then answer as well as the router can. `poll` and
/// `cancel` answer from the local record; `result` for a job whose
/// *completed* solution died with its backend re-solves the retained
/// spec on the key's new owner — the instance is content-addressed and
/// the solver deterministic, so the recomputed answer is the answer.
fn recover_job_verb(conn: &Arc<Conn>, rid: u64, addr: &str, verb: JobVerb) -> String {
    fail_over(conn, addr);
    let snapshot = {
        let st = conn.state.lock();
        st.jobs
            .get(&rid)
            .map(|r| (r.state, r.cached, r.backend.clone()))
    };
    let Some((state, cached, backend)) = snapshot else {
        return render_response(&Response::Error {
            message: format!("backend {addr} is down and job {rid} is not known here"),
        });
    };
    // The failover pass may already have moved the job to a live
    // backend; if so, just forward there (bounded recursion — each
    // round removes a dead backend from the ring).
    if let Some(new_addr) = backend {
        if new_addr != addr {
            return forward_job_verb(conn, rid, verb);
        }
    }
    render_response(&match verb {
        JobVerb::Poll => Response::PollState { job: rid, state },
        JobVerb::Cancel => Response::CancelState { job: rid, state },
        JobVerb::Result => {
            if let Some(frame) = resolve_result(conn, rid) {
                return frame;
            }
            Response::ResultReady {
                job: rid,
                state,
                cached,
                objective: None,
                solution: None,
                error: Some(format!(
                    "backend {addr} was lost; the solution could not be recovered"
                )),
            }
        }
    })
}

/// Recompute a lost result: submit the retained spec to the key's
/// current owner (no watch — the client already saw the terminal
/// state) and poll until the solve lands, bounded by [`LINK_TIMEOUT`].
/// Returns the answer's frame.
fn resolve_result(conn: &Arc<Conn>, rid: u64) -> Option<String> {
    let (spec, key) = {
        let st = conn.state.lock();
        let r = st.jobs.get(&rid)?;
        (r.spec.clone()?, r.key)
    };
    let deadline = Instant::now() + LINK_TIMEOUT;
    'owners: while Instant::now() < deadline {
        let owner = {
            let st = conn.state.lock();
            if st.ring.is_empty() {
                return None;
            }
            st.ring.owner(key.0).to_string()
        };
        let Ok(link) = ensure_link(conn, &owner) else {
            fail_over(conn, &owner);
            continue;
        };
        let bjob = match link.roundtrip(&Request::SubmitBatch {
            jobs: vec![spec.clone()],
            watch: false,
            progress: false,
        }) {
            Ok(Response::BatchSubmitted { jobs }) if jobs.len() == 1 => jobs[0].job,
            Ok(Response::Overloaded { retry_after_ms, .. }) => {
                thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                continue;
            }
            Ok(_) => return None,
            Err(_) => {
                fail_over(conn, &owner);
                continue;
            }
        };
        {
            let mut st = conn.state.lock();
            if !link.alive.load(Ordering::Acquire) {
                continue;
            }
            st.by_backend.insert((owner.clone(), bjob), rid);
            if let Some(r) = st.jobs.get_mut(&rid) {
                r.backend = Some(owner.clone());
                r.backend_job = bjob;
            }
        }
        while Instant::now() < deadline {
            match link.result(bjob, rid) {
                Ok((Some(state), _)) if !state.is_terminal() => {
                    thread::sleep(Duration::from_millis(25));
                }
                Ok((Some(state), frame)) => {
                    let mut st = conn.state.lock();
                    if let Some(r) = st.jobs.get_mut(&rid) {
                        r.state = state;
                    }
                    return Some(frame);
                }
                Ok((None, _)) => return None,
                Err(_) => {
                    fail_over(conn, &owner);
                    continue 'owners;
                }
            }
        }
    }
    None
}

/// Rewrite the job id in a forwarded `poll` or `cancel` answer back to
/// the router id (`result` answers are relabelled as text,
/// [`Link::result`]).
fn remap_job(resp: Response, rid: u64) -> Response {
    match resp {
        Response::PollState { state, .. } => Response::PollState { job: rid, state },
        Response::CancelState { state, .. } => Response::CancelState { job: rid, state },
        other => other,
    }
}

fn handle_peek(conn: &Arc<Conn>, key: &str) -> Response {
    let Some(parsed) = InstanceKey::from_hex(key) else {
        return Response::Error {
            message: format!("peek: `{key}` is not a 32-hex-digit instance key"),
        };
    };
    let owner = {
        let st = conn.state.lock();
        if st.ring.is_empty() {
            None
        } else {
            Some(st.ring.owner(parsed.0).to_string())
        }
    };
    let Some(owner) = owner else {
        return Response::Error {
            message: "route: no live backend to route to".into(),
        };
    };
    let link = match ensure_link(conn, &owner) {
        Ok(l) => l,
        Err(e) => return Response::Error { message: e },
    };
    match link.roundtrip(&Request::Peek {
        key: key.to_string(),
    }) {
        Ok(resp) => resp,
        Err(e) => Response::Error { message: e },
    }
}

/// Aggregate `stats` across every live backend, each field folded by its
/// kind ([`ServiceStats::merge`]), plus the router's own connection
/// counters, uptime and dropped events.
fn handle_stats(conn: &Arc<Conn>) -> Response {
    let addrs: Vec<String> = {
        let st = conn.state.lock();
        st.ring.nodes().to_vec()
    };
    let mut agg = ServiceStats::default();
    for addr in addrs {
        let Ok(link) = ensure_link(conn, &addr) else {
            continue;
        };
        if let Ok(Response::Stats(s)) = link.roundtrip(&Request::Stats) {
            agg.merge(&s);
        }
    }
    agg.proto_versions = ProtoVersions {
        v1: conn.shared.proto_v1.load(Ordering::Relaxed),
        v2: conn.shared.proto_v2.load(Ordering::Relaxed),
    };
    agg.uptime_ms = conn.shared.started.elapsed().as_millis() as u64;
    agg.events_dropped += conn.dropped.load(Ordering::Relaxed);
    Response::Stats(agg)
}

/// v1 clients cannot parse the structured `overloaded` answer; demote
/// it to a plain error for them.
fn demote(resp: Response, v2: bool) -> Response {
    match resp {
        Response::Overloaded { message, .. } if !v2 => Response::Error { message },
        other => other,
    }
}

fn push_response(outbox: &Outbox, response: &Response) {
    outbox.push_response(render_response(response));
}

fn serve_connection(stream: TcpStream, local: SocketAddr, shared: Arc<RouterShared>) {
    let Ok(peer_writer) = stream.try_clone() else {
        return;
    };
    let dropped = Arc::new(AtomicU64::new(0));
    let outbox = Arc::new(Outbox::new(EVENT_QUEUE_CAP, dropped.clone()));
    let conn = Arc::new(Conn {
        shared: shared.clone(),
        outbox: outbox.clone(),
        dropped,
        state: Mutex::new(ConnState {
            ring: ShardMap::new(&shared.opts.backends, shared.opts.vnodes),
            links: HashMap::new(),
            jobs: HashMap::new(),
            by_backend: HashMap::new(),
            pending: Vec::new(),
            local_seq: 0,
            client_stats: false,
        }),
        dial: Mutex::new(()),
        closing: AtomicBool::new(false),
    });
    let writer_outbox = outbox.clone();
    let writer = thread::spawn(move || writer_loop(peer_writer, &writer_outbox));
    let mut reader = BufReader::new(stream);
    let mut counted = false;
    let mut negotiated_v2 = false;
    let mut buf = Vec::new();
    loop {
        let line = match read_frame(&mut reader, &mut buf) {
            Ok(FrameRead::Line(line)) => line,
            Ok(FrameRead::TooLong) => {
                push_response(&outbox, &frame_too_long());
                break;
            }
            Ok(FrameRead::Eof) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match serde_json::from_str::<Request>(line) {
            Ok(r) => r,
            Err(e) => {
                push_response(
                    &outbox,
                    &Response::Error {
                        message: format!("bad request: {e}"),
                    },
                );
                continue;
            }
        };
        if !counted {
            counted = true;
            if matches!(request, Request::Hello { proto } if proto >= 2) {
                shared.proto_v2.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.proto_v1.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut shutting_down = false;
        let response = match request {
            Request::Hello { proto } => {
                let negotiated = proto.clamp(1, PROTO_VERSION);
                negotiated_v2 = negotiated >= 2;
                Response::Welcome {
                    proto: negotiated,
                    capabilities: CAPABILITIES.iter().map(|c| c.to_string()).collect(),
                }
            }
            Request::Submit {
                design,
                board,
                config,
                deadline_ms,
            } => {
                let spec = SubmitSpec {
                    design,
                    board,
                    config,
                    deadline_ms,
                };
                match handle_submit_batch(&conn, vec![spec], false, true) {
                    Response::BatchSubmitted { jobs } => {
                        let r = jobs
                            .into_iter()
                            .next()
                            .expect("one receipt per submitted spec");
                        Response::Submitted {
                            job: r.job,
                            state: r.state,
                            cached: r.cached,
                            key: r.key,
                        }
                    }
                    other => demote(other, negotiated_v2),
                }
            }
            Request::SubmitBatch {
                jobs,
                watch,
                progress,
            } => demote(
                handle_submit_batch(&conn, jobs, watch, progress),
                negotiated_v2,
            ),
            Request::Watch {
                jobs,
                progress,
                stats,
            } => handle_watch(&conn, jobs, progress, stats),
            Request::Attach {
                jobs,
                progress,
                stats,
            } => handle_attach(&conn, jobs, progress, stats),
            Request::Peek { key } => handle_peek(&conn, &key),
            // Job verbs answer with their frame already written: a
            // `result` payload is forwarded as the backend's text.
            Request::Poll { job } => {
                outbox.push_response(forward_job_verb(&conn, job, JobVerb::Poll));
                continue;
            }
            Request::Result { job } => {
                outbox.push_response(forward_job_verb(&conn, job, JobVerb::Result));
                continue;
            }
            Request::Cancel { job } => {
                outbox.push_response(forward_job_verb(&conn, job, JobVerb::Cancel));
                continue;
            }
            Request::Stats => handle_stats(&conn),
            Request::Shutdown => {
                shutting_down = true;
                Response::Bye
            }
        };
        push_response(&outbox, &response);
        if shutting_down {
            shared.stop.store(true, Ordering::Release);
            wake_acceptor(local);
            break;
        }
    }
    // Teardown: our link closures must not read as backend losses.
    conn.closing.store(true, Ordering::Release);
    let links: Vec<Arc<Link>> = conn.state.lock().links.values().cloned().collect();
    for link in links {
        link.close();
    }
    outbox.close();
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    use gmm_service::client::Session;
    use gmm_service::queue::{JobConfig, JobQueue, QueueOptions};
    use gmm_service::server::MapServer;
    use gmm_workloads::{random_design, RandomDesignSpec};

    fn board() -> gmm_arch::Board {
        gmm_arch::Board::prototyping("XCV300", 1).unwrap()
    }

    fn spec(seed: u64) -> SubmitSpec {
        let design = random_design(&RandomDesignSpec {
            segments: 4,
            seed,
            ..RandomDesignSpec::default()
        });
        SubmitSpec::new(design, board(), JobConfig::default())
    }

    fn start_backend() -> MapServer {
        let mut opts = QueueOptions::default();
        opts.workers = 2;
        MapServer::start("127.0.0.1:0", Arc::new(JobQueue::new(opts))).unwrap()
    }

    #[test]
    fn routes_across_backends_and_streams_events() {
        let a = start_backend();
        let b = start_backend();
        let backends = vec![a.local_addr().to_string(), b.local_addr().to_string()];
        let router = Router::start("127.0.0.1:0", RouterOptions::new(backends)).unwrap();
        let mut session = Session::connect(router.local_addr()).unwrap();
        let specs: Vec<SubmitSpec> = (0..6).map(spec).collect();
        let receipts = session.submit_batch(specs).unwrap();
        assert_eq!(receipts.len(), 6);
        let outcomes = session.wait_all(Duration::from_secs(120)).unwrap();
        assert_eq!(outcomes.len(), 6);
        for out in &outcomes {
            assert_eq!(out.state, JobState::Done);
        }
        // The two daemons together solved every job exactly once.
        let total = a.queue().stats().jobs_submitted + b.queue().stats().jobs_submitted;
        assert_eq!(total, 6);
        // Per-job verbs round-trip through the router by router id.
        let out = session.result(receipts[0].job).unwrap();
        assert_eq!(out.state, JobState::Done);
        assert!(out.objective.is_some());
        router.request_stop();
    }

    /// A scripted backend that sheds every submission, for deterministic
    /// overload propagation (a real queue only rejects under live load).
    fn overloaded_stub() -> (SocketAddr, thread::JoinHandle<u32>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let mut rejected = 0u32;
            let Ok((stream, _)) = listener.accept() else {
                return rejected;
            };
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            loop {
                line.clear();
                let Ok(n) = reader.read_line(&mut line) else {
                    return rejected;
                };
                if n == 0 {
                    return rejected;
                }
                if line.trim().is_empty() {
                    continue;
                }
                let req: Request = serde_json::from_str(&line).unwrap();
                let resp = match req {
                    Request::Hello { .. } => Response::Welcome {
                        proto: 2,
                        capabilities: vec![],
                    },
                    Request::Watch { .. } => Response::Watching {
                        watching: vec![],
                        unknown: vec![],
                    },
                    Request::SubmitBatch { .. } => {
                        rejected += 1;
                        Response::Overloaded {
                            message: "mapsrv overloaded: 1/1 jobs in flight".into(),
                            inflight: 1,
                            max_inflight: 1,
                            retry_after_ms: 5,
                        }
                    }
                    Request::Cancel { job } => Response::CancelState {
                        job,
                        state: JobState::Cancelled,
                    },
                    _ => Response::Error {
                        message: "unexpected verb".into(),
                    },
                };
                let mut text = serde_json::to_string(&resp).unwrap();
                text.push('\n');
                if writer
                    .write_all(text.as_bytes())
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    return rejected;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn overload_propagates_with_retry_hint() {
        let (addr, stub) = overloaded_stub();
        let router =
            Router::start("127.0.0.1:0", RouterOptions::new(vec![addr.to_string()])).unwrap();
        // Raw v2 frames: a `Session` would retry the structured
        // rejection away before we could observe it.
        let mut stream = TcpStream::connect(router.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |req: &Request| {
            let mut text = serde_json::to_string(req).unwrap();
            text.push('\n');
            stream.write_all(text.as_bytes()).unwrap();
            stream.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str::<Response>(&line).unwrap()
        };
        assert!(matches!(
            send(&Request::Hello { proto: 2 }),
            Response::Welcome { proto: 2, .. }
        ));
        match send(&Request::SubmitBatch {
            jobs: vec![spec(1)],
            watch: true,
            progress: false,
        }) {
            Response::Overloaded {
                retry_after_ms,
                max_inflight,
                ..
            } => {
                assert_eq!(retry_after_ms, 5);
                assert_eq!(max_inflight, 1);
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        drop(reader);
        drop(stream);
        router.request_stop();
        let rejected = stub.join().unwrap();
        assert_eq!(
            rejected, OVERLOAD_RETRIES,
            "the router should retry the bounded number of times before propagating"
        );
    }

    #[test]
    fn peer_fill_serves_cached_answers_from_previous_owner() {
        let a = start_backend();
        let b = start_backend();
        let addr_a = a.local_addr().to_string();
        let addr_b = b.local_addr().to_string();
        let s = spec(7);
        // With two nodes the previous owner is always the other node;
        // warm *its* cache by solving there directly.
        let ring = ShardMap::new(&[addr_a.clone(), addr_b.clone()], 0);
        let key = instance_key(&s.design, &s.board, &s.config);
        let prev = ring.previous_owner(key.0).unwrap().to_string();
        let mut warm = Session::connect(prev.as_str()).unwrap();
        warm.submit_batch(vec![s.clone()]).unwrap();
        warm.wait_all(Duration::from_secs(120)).unwrap();
        // Routed with peer fill on, the submit is answered from the
        // peer's cache without queueing anywhere.
        let mut opts = RouterOptions::new(vec![addr_a, addr_b]);
        opts.peer_fill = true;
        let router = Router::start("127.0.0.1:0", opts).unwrap();
        let mut session = Session::connect(router.local_addr()).unwrap();
        let receipts = session.submit_batch(vec![s]).unwrap();
        assert!(receipts[0].cached, "peer fill should answer from cache");
        let outcomes = session.wait_all(Duration::from_secs(30)).unwrap();
        assert_eq!(outcomes[0].state, JobState::Done);
        assert_eq!(router.peer_fills(), 1);
        // The router answers `result` for the served job itself.
        let out = session.result(receipts[0].job).unwrap();
        assert_eq!(out.state, JobState::Done);
        assert!(out.objective.is_some());
        router.request_stop();
    }

    /// A backend that finishes every job at once, then answers `result`
    /// with the next job's answer; returns whether the router hung up.
    fn wrong_job_stub() -> (SocketAddr, thread::JoinHandle<bool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return true;
                }
                let mut text = match serde_json::from_str::<Request>(&line).unwrap() {
                    Request::Hello { .. } => render_response(&Response::Welcome {
                        proto: 2,
                        capabilities: vec![],
                    }),
                    Request::SubmitBatch { jobs, .. } => {
                        render_response(&Response::BatchSubmitted {
                            jobs: jobs
                                .iter()
                                .map(|s| SubmitReceipt {
                                    job: 1000,
                                    state: JobState::Done,
                                    cached: true,
                                    key: instance_key(&s.design, &s.board, &s.config).to_hex(),
                                })
                                .collect(),
                        })
                    }
                    Request::Result { job } => gmm_service::protocol::result_frame(
                        job + 1,
                        JobState::Done,
                        true,
                        Some(1.0),
                        Some(r#"{"other":true}"#),
                        None,
                    ),
                    _ => render_response(&Response::Error {
                        message: "unexpected verb".into(),
                    }),
                };
                text.push('\n');
                if writer.write_all(text.as_bytes()).is_err() {
                    return false;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_result_for_another_job_is_refused_and_drops_the_backend() {
        let (addr, stub) = wrong_job_stub();
        let router =
            Router::start("127.0.0.1:0", RouterOptions::new(vec![addr.to_string()])).unwrap();
        let stream = TcpStream::connect(router.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send = |req: &Request| {
            let mut text = serde_json::to_string(req).unwrap();
            text.push('\n');
            writer.write_all(text.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        let receipt = match serde_json::from_str(&send(&Request::SubmitBatch {
            jobs: vec![spec(1)],
            watch: false,
            progress: false,
        })) {
            Ok(Response::BatchSubmitted { jobs }) => jobs[0].clone(),
            other => panic!("expected a receipt, got {other:?}"),
        };
        assert_eq!(receipt.job, encode(1000, 0));
        let answer = send(&Request::Result { job: receipt.job });
        assert!(!answer.contains("other"), "another job's payload: {answer}");
        match serde_json::from_str(&answer) {
            Ok(Response::ResultReady {
                job,
                solution: None,
                error: Some(error),
                ..
            }) => {
                assert_eq!(job, receipt.job);
                assert!(error.contains("could not be recovered"), "{error}");
            }
            other => panic!("expected a structured failure, got {other:?}"),
        }
        assert_eq!(router.reconnects(), 1, "the backend is declared lost");
        assert!(stub.join().unwrap(), "the router closes the link");
        assert!(matches!(
            serde_json::from_str(&send(&Request::Stats)),
            Ok(Response::Stats(_))
        ));
        router.request_stop();
    }

    /// A backend that accepts a batch and then drops the connection —
    /// a crash immediately after taking work.
    fn crashing_stub() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            loop {
                line.clear();
                let Ok(n) = reader.read_line(&mut line) else {
                    return;
                };
                if n == 0 {
                    return;
                }
                if line.trim().is_empty() {
                    continue;
                }
                let req: Request = serde_json::from_str(&line).unwrap();
                let resp = match req {
                    Request::Hello { .. } => Response::Welcome {
                        proto: 2,
                        capabilities: vec![],
                    },
                    Request::Watch { .. } => Response::Watching {
                        watching: vec![],
                        unknown: vec![],
                    },
                    Request::SubmitBatch { jobs, .. } => {
                        let receipts = jobs
                            .iter()
                            .enumerate()
                            .map(|(i, s)| SubmitReceipt {
                                job: 1000 + i as u64,
                                state: JobState::Queued,
                                cached: false,
                                key: instance_key(&s.design, &s.board, &s.config).to_hex(),
                            })
                            .collect();
                        let resp = Response::BatchSubmitted { jobs: receipts };
                        let mut text = serde_json::to_string(&resp).unwrap();
                        text.push('\n');
                        let _ = writer
                            .write_all(text.as_bytes())
                            .and_then(|_| writer.flush());
                        return; // crash: never solve, just vanish
                    }
                    _ => Response::Error {
                        message: "unexpected verb".into(),
                    },
                };
                let mut text = serde_json::to_string(&resp).unwrap();
                text.push('\n');
                if writer
                    .write_all(text.as_bytes())
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn backend_loss_reroutes_inflight_jobs() {
        let real = start_backend();
        let (flaky_addr, stub) = crashing_stub();
        let backends = vec![real.local_addr().to_string(), flaky_addr.to_string()];
        let router = Router::start("127.0.0.1:0", RouterOptions::new(backends.clone())).unwrap();
        // Pick 3 specs the ring routes to the doomed backend and 3 it
        // routes to the survivor.
        let ring = ShardMap::new(&backends, 0);
        let flaky = flaky_addr.to_string();
        let mut flaky_specs = Vec::new();
        let mut real_specs = Vec::new();
        for seed in 0..10_000u64 {
            if flaky_specs.len() >= 3 && real_specs.len() >= 3 {
                break;
            }
            let s = spec(seed);
            let key = instance_key(&s.design, &s.board, &s.config);
            if ring.owner(key.0) == flaky {
                if flaky_specs.len() < 3 {
                    flaky_specs.push(s);
                }
            } else if real_specs.len() < 3 {
                real_specs.push(s);
            }
        }
        assert_eq!((flaky_specs.len(), real_specs.len()), (3, 3));
        let mut specs = flaky_specs;
        specs.extend(real_specs);

        let mut session = Session::connect(router.local_addr()).unwrap();
        let receipts = session.submit_batch(specs).unwrap();
        assert_eq!(receipts.len(), 6);
        let outcomes = session.wait_all(Duration::from_secs(120)).unwrap();
        assert_eq!(outcomes.len(), 6);
        for out in &outcomes {
            assert_eq!(
                out.state,
                JobState::Done,
                "job {} should survive the backend crash",
                out.job
            );
        }
        assert!(router.reconnects() >= 1, "the crash must be observed");
        // Every job ended up solved by the survivor.
        assert_eq!(real.queue().stats().jobs_completed, 6);
        stub.join().unwrap();
        drop(session);
        router.request_stop();
    }

    /// A scripted backend whose one job's `queued` frame reaches the
    /// router before the submit receipt, which already reports the job
    /// `done` (a cache hit). The router parks the frame until the
    /// receipt lands and replays it after the record says `done`.
    fn late_queued_stub() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
                let mut frames = Vec::new();
                match serde_json::from_str::<Request>(&line).unwrap() {
                    Request::Hello { .. } => frames.push(render_response(&Response::Welcome {
                        proto: 2,
                        capabilities: vec![],
                    })),
                    Request::SubmitBatch { jobs, .. } => {
                        let s = &jobs[0];
                        frames.push(r#"{"event":"state","job":1000,"state":"queued"}"#.into());
                        frames.push(render_response(&Response::BatchSubmitted {
                            jobs: vec![SubmitReceipt {
                                job: 1000,
                                state: JobState::Done,
                                cached: true,
                                key: instance_key(&s.design, &s.board, &s.config).to_hex(),
                            }],
                        }));
                    }
                    Request::Result { job } => {
                        frames.push(render_response(&Response::ResultReady {
                            job,
                            state: JobState::Done,
                            cached: true,
                            objective: Some(1.0),
                            solution: Some(Value::Array(vec![])),
                            error: None,
                        }))
                    }
                    _ => frames.push(render_response(&Response::Error {
                        message: "unexpected verb".into(),
                    })),
                }
                let text: String = frames.iter().map(|f| format!("{f}\n")).collect();
                if writer.write_all(text.as_bytes()).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn replayed_queued_frame_never_rewinds_a_finished_job() {
        let addr = late_queued_stub();
        let router =
            Router::start("127.0.0.1:0", RouterOptions::new(vec![addr.to_string()])).unwrap();
        let mut session = Session::connect(router.local_addr()).unwrap();
        session.submit_batch(vec![spec(1)]).unwrap();
        // Before the rank gate, the replayed `queued` frame rewound the
        // router's record, the watch snapshot handed `queued` to the
        // client, and no terminal frame ever followed.
        let outcomes = session
            .wait_all(Duration::from_secs(10))
            .expect("the watch must end done");
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].state, JobState::Done);
        drop(session);
        router.request_stop();
    }

    #[test]
    fn attach_adopts_jobs_from_the_embedded_backend_index() {
        let a = start_backend();
        let addr = a.local_addr().to_string();
        // Solve directly on the backend, bypassing the router entirely.
        let mut direct = Session::connect(addr.as_str()).unwrap();
        let receipts = direct.submit_batch(vec![spec(3)]).unwrap();
        direct.wait_all(Duration::from_secs(120)).unwrap();
        let backend_job = receipts[0].job;
        // A fresh router connection can still attach: the id encoding
        // names the backend.
        let router = Router::start("127.0.0.1:0", RouterOptions::new(vec![addr])).unwrap();
        let mut stream = TcpStream::connect(router.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |req: &Request| {
            let mut text = serde_json::to_string(req).unwrap();
            text.push('\n');
            stream.write_all(text.as_bytes()).unwrap();
            stream.flush().unwrap();
            // Snapshot event frames may precede the response; skip them.
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let value: Value = serde_json::from_str(&line).unwrap();
                if value.get("event").is_none() {
                    return serde_json::from_value::<Response>(value).unwrap();
                }
            }
        };
        assert!(matches!(
            send(&Request::Hello { proto: 2 }),
            Response::Welcome { .. }
        ));
        let rid = encode(backend_job, 0);
        match send(&Request::Attach {
            jobs: vec![rid, encode(999_999, 0)],
            progress: true,
            stats: false,
        }) {
            Response::Attached { attached, unknown } => {
                assert_eq!(attached.len(), 1);
                assert_eq!(attached[0].job, rid);
                assert_eq!(attached[0].state, JobState::Done);
                assert_eq!(unknown, vec![encode(999_999, 0)]);
            }
            other => panic!("expected attached, got {other:?}"),
        }
        drop(reader);
        drop(stream);
        router.request_stop();
    }

    /// `stats` through the router is the per-field fold of the backends'
    /// own `stats`: counters sum, the eta peak and latency percentiles take
    /// the max, and the connection counters and uptime are the router's.
    #[test]
    fn router_stats_fold_backend_stats_by_kind() {
        let a = start_backend();
        let b = start_backend();
        // Different job mixes straight to each backend: small designs on
        // `a`, larger ones on `b`, so their solver counters differ.
        let mut direct_a = Session::connect(a.local_addr()).unwrap();
        direct_a.submit_batch((0..3).map(spec).collect()).unwrap();
        direct_a.wait_all(Duration::from_secs(120)).unwrap();
        let mut direct_b = Session::connect(b.local_addr()).unwrap();
        let big = (0..2)
            .map(|seed| {
                let design = random_design(&RandomDesignSpec {
                    segments: 14,
                    seed: 100 + seed,
                    ..RandomDesignSpec::default()
                });
                let board = gmm_arch::Board::prototyping("XCV1000", 4).unwrap();
                SubmitSpec::new(design, board, JobConfig::default())
            })
            .collect();
        direct_b.submit_batch(big).unwrap();
        direct_b.wait_all(Duration::from_secs(120)).unwrap();
        let sa = direct_a.stats().unwrap();
        let sb = direct_b.stats().unwrap();
        assert_ne!(sa.eta_nnz_peak, sb.eta_nnz_peak, "{sa:?}\n{sb:?}");
        assert_ne!(sa.lp_iterations, sb.lp_iterations, "{sa:?}\n{sb:?}");

        let started = Instant::now();
        let backends = vec![a.local_addr().to_string(), b.local_addr().to_string()];
        let router = Router::start("127.0.0.1:0", RouterOptions::new(backends)).unwrap();
        let mut session = Session::connect(router.local_addr()).unwrap();
        let r = session.stats().unwrap();

        let sum = |f: fn(&ServiceStats) -> u64| f(&sa) + f(&sb);
        let max = |f: fn(&ServiceStats) -> u64| f(&sa).max(f(&sb));
        let expected = ServiceStats {
            jobs_submitted: sum(|s| s.jobs_submitted),
            jobs_completed: sum(|s| s.jobs_completed),
            jobs_failed: sum(|s| s.jobs_failed),
            jobs_cancelled: sum(|s| s.jobs_cancelled),
            jobs_deadline: sum(|s| s.jobs_deadline),
            jobs_pruned: sum(|s| s.jobs_pruned),
            retain_jobs: sum(|s| s.retain_jobs),
            cache_hits: sum(|s| s.cache_hits),
            cache_misses: sum(|s| s.cache_misses),
            cache_entries: sum(|s| s.cache_entries),
            cache_evictions: sum(|s| s.cache_evictions),
            cache_cap: sum(|s| s.cache_cap),
            workers: sum(|s| s.workers),
            uptime_ms: r.uptime_ms,
            proto_versions: r.proto_versions,
            events_dropped: sum(|s| s.events_dropped),
            lp_iterations: sum(|s| s.lp_iterations),
            refactorizations: sum(|s| s.refactorizations),
            eta_nnz_peak: max(|s| s.eta_nnz_peak),
            disk_entries: sum(|s| s.disk_entries),
            disk_hits: sum(|s| s.disk_hits),
            disk_misses: sum(|s| s.disk_misses),
            disk_corrupt: sum(|s| s.disk_corrupt),
            hint_entries: sum(|s| s.hint_entries),
            hint_hits: sum(|s| s.hint_hits),
            hint_misses: sum(|s| s.hint_misses),
            incumbent_seeded: sum(|s| s.incumbent_seeded),
            heuristic_solved: sum(|s| s.heuristic_solved),
            heuristic_seeded: sum(|s| s.heuristic_seeded),
            heuristic_infeasible: sum(|s| s.heuristic_infeasible),
            queue_depth: sum(|s| s.queue_depth),
            latency_p50_ms: max(|s| s.latency_p50_ms),
            latency_p95_ms: max(|s| s.latency_p95_ms),
        };
        assert_eq!(r, expected);
        assert_eq!(r.jobs_completed, 5);
        // The router's own: one v2 client connection, and its own uptime.
        assert_eq!(r.proto_versions, ProtoVersions { v1: 0, v2: 1 });
        assert!(r.uptime_ms <= started.elapsed().as_millis() as u64);
        router.request_stop();
    }
}
