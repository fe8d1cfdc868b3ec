//! `mapsrv` clients: the multiplexed protocol-v2 [`Session`] and the
//! minimal poll-oriented v1 [`MapClient`].
//!
//! [`Session`] is what `gmm batch` runs on, local and remote: it
//! multiplexes many in-flight jobs over one connection (or one
//! in-process [`JobQueue`]), submits many jobs per round-trip with
//! `submit_batch`, subscribes to server-push events with `watch`, and
//! waits by *consuming* the event stream ([`Session::for_each_event`] /
//! [`Session::wait_all`]) instead of sleeping and polling. Against a
//! server that does not speak protocol v2 it degrades to poll-based
//! waiting with capped exponential backoff.
//!
//! [`MapClient`] remains the canonical one-verb-at-a-time v1 binding:
//! the protocol is plain enough that any language's socket + JSON
//! library can speak it (see [`crate::protocol`]), and `MapClient` is
//! its reference implementation.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;

use gmm_api::Termination;
use gmm_arch::Board;
use gmm_design::Design;

use crate::events::{Frame, Popped};
use crate::protocol::{
    JobEvent, Request, Response, ServerFrame, ServiceStats, SubmitReceipt, SubmitSpec,
    MAX_FRAME_BYTES, PROTO_VERSION,
};
use crate::queue::{JobConfig, JobQueue, JobState};
use crate::server::{service_stats, EVENT_QUEUE_CAP};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server answered, but not with the response the verb expects.
    Protocol(String),
    /// The server answered `{"ok": false, …}`.
    Remote(String),
    /// [`MapClient::wait`] ran out of time.
    Timeout {
        job: u64,
        last_state: JobState,
    },
    /// A session-level wait ([`Session::wait_all`] /
    /// [`Session::for_each_event`]) hit its deadline with jobs still
    /// pending.
    Expired {
        pending: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Remote(m) => write!(f, "server error: {m}"),
            ClientError::Timeout { job, last_state } => {
                write!(
                    f,
                    "timed out waiting for job {job} (last state {})",
                    last_state.as_str()
                )
            }
            ClientError::Expired { pending } => {
                write!(
                    f,
                    "session wait timed out with {pending} job(s) not yet terminal"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A finished (or still-running) job as seen over the wire.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    pub job: u64,
    pub state: JobState,
    pub cached: bool,
    pub objective: Option<f64>,
    /// Raw solution tree; render with `serde_json::to_string` to recover
    /// the canonical byte-identical payload.
    pub solution: Option<Value>,
    pub error: Option<String>,
    /// Full termination of the solve session, when known: populated from
    /// terminal `watch` events (v2), from the job record (local
    /// sessions), and absent over bare v1 polling — the v1 `result`
    /// response shape carries no termination and is kept byte-stable.
    pub termination: Option<Termination>,
}

/// One connection to a `mapsrv` daemon (protocol v1: request/response
/// only, no event streaming).
pub struct MapClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl MapClient {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<MapClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(MapClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read one response line.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut text =
            serde_json::to_string(request).expect("in-tree serde_json cannot fail to render");
        text.push('\n');
        self.writer.write_all(text.as_bytes())?;
        self.writer.flush()?;

        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        match serde_json::from_str::<Response>(&line) {
            Ok(Response::Error { message }) => Err(ClientError::Remote(message)),
            Ok(resp) => Ok(resp),
            Err(e) => Err(ClientError::Protocol(format!("bad response line: {e}"))),
        }
    }

    /// Submit an instance; returns `(job id, state, cache hit)`.
    pub fn submit(
        &mut self,
        design: Design,
        board: Board,
        config: JobConfig,
    ) -> Result<(u64, JobState, bool), ClientError> {
        self.submit_with_deadline(design, board, config, None)
    }

    /// [`MapClient::submit`] with a per-job solve deadline: past it the
    /// job terminates in the structured `deadline` state.
    pub fn submit_with_deadline(
        &mut self,
        design: Design,
        board: Board,
        config: JobConfig,
        deadline: Option<Duration>,
    ) -> Result<(u64, JobState, bool), ClientError> {
        match self.roundtrip(&Request::Submit {
            design,
            board,
            config,
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
        })? {
            Response::Submitted {
                job, state, cached, ..
            } => Ok((job, state, cached)),
            other => Err(unexpected("submit", &other)),
        }
    }

    /// Cancel a job: a queued job transitions to `cancelled` outright, a
    /// running job's token is fired (poll until terminal). Returns the
    /// job's state as of the call.
    pub fn cancel(&mut self, job: u64) -> Result<JobState, ClientError> {
        match self.roundtrip(&Request::Cancel { job })? {
            Response::CancelState { state, .. } => Ok(state),
            other => Err(unexpected("cancel", &other)),
        }
    }

    pub fn poll(&mut self, job: u64) -> Result<JobState, ClientError> {
        match self.roundtrip(&Request::Poll { job })? {
            Response::PollState { state, .. } => Ok(state),
            other => Err(unexpected("poll", &other)),
        }
    }

    pub fn result(&mut self, job: u64) -> Result<RemoteOutcome, ClientError> {
        match self.roundtrip(&Request::Result { job })? {
            Response::ResultReady {
                job,
                state,
                cached,
                objective,
                solution,
                error,
            } => Ok(RemoteOutcome {
                job,
                state,
                cached,
                objective,
                solution,
                error,
                termination: None,
            }),
            other => Err(unexpected("result", &other)),
        }
    }

    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("stats", &other)),
        }
    }

    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// Poll until the job is terminal, then fetch its result.
    ///
    /// The timeout is measured against one deadline `Instant` armed at
    /// entry, and the poll interval backs off exponentially (1 ms
    /// doubling to a 100 ms cap) so long solves do not hammer the
    /// server with polls.
    pub fn wait(&mut self, job: u64, timeout: Duration) -> Result<RemoteOutcome, ClientError> {
        let deadline = Instant::now() + timeout;
        let mut interval = Duration::from_millis(1);
        loop {
            let state = self.poll(job)?;
            if state.is_terminal() {
                return self.result(job);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ClientError::Timeout {
                    job,
                    last_state: state,
                });
            }
            std::thread::sleep(interval.min(deadline - now));
            interval = (interval * 2).min(Duration::from_millis(100));
        }
    }
}

fn unexpected(verb: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response to `{verb}`: {got:?}"))
}

/// A session's answer to `result` as an outcome; `termination` comes
/// from the terminal event the session saw, since the `result` frame
/// carries none.
fn remote_outcome(
    answer: Response,
    termination: Option<Termination>,
) -> Result<RemoteOutcome, ClientError> {
    match answer {
        Response::Error { message } => Err(ClientError::Remote(message)),
        Response::ResultReady {
            job,
            state,
            cached,
            objective,
            solution,
            error,
        } => Ok(RemoteOutcome {
            job,
            state,
            cached,
            objective,
            solution,
            error,
            termination,
        }),
        other => Err(unexpected("result", &other)),
    }
}

/// Which dialect a [`Session`] is speaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Poll-based fallback against a server without v2.
    V1,
    /// Negotiated streaming protocol.
    V2,
    /// In-process, directly on a [`JobQueue`] (same event machinery as
    /// v2, no sockets).
    Local,
}

/// Incremental line reader over a raw `TcpStream` that survives read
/// timeouts mid-frame: bytes already received stay buffered, so a
/// deadline that fires between two halves of a line loses nothing.
///
/// Built for pipelined bursts, where one read brings many lines: each
/// byte is scanned for `\n` once, consumed lines are dropped from the
/// buffer once per read rather than once per line, and the socket's
/// read timeout is only re-armed when it must change.
struct FrameReader {
    stream: TcpStream,
    /// Received bytes; `buf[start..]` has not been returned yet.
    buf: Vec<u8>,
    start: usize,
    /// `buf[start..scanned]` holds no `\n`.
    scanned: usize,
    /// The read timeout currently set on the socket.
    armed: Option<Duration>,
}

/// How far the socket's read timeout may stray from the time left
/// before the deadline before [`FrameReader`] re-arms it.
const TIMEOUT_SLACK: Duration = Duration::from_millis(1);

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 16 * 1024;

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            armed: None,
        }
    }

    /// Next `\n`-terminated line, or [`ClientError::Expired`] once
    /// `deadline` passes.
    fn next_line(&mut self, deadline: Option<Instant>) -> Result<String, ClientError> {
        loop {
            if let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + i;
                let line = std::str::from_utf8(&self.buf[self.start..end]).map(str::to_owned);
                self.start = end + 1;
                self.scanned = self.start;
                return line.map_err(|_| ClientError::Protocol("non-utf8 frame".into()));
            }
            self.scanned = self.buf.len();
            let timeout = match deadline {
                None => None,
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(ClientError::Expired { pending: 0 });
                    }
                    Some(d - now)
                }
            };
            // A timeout armed earlier is kept while it is within the
            // slack of the time left: a burst of reads arms it once.
            let keep = match (self.armed, timeout) {
                (None, None) => true,
                (Some(armed), Some(left)) => armed.abs_diff(left) <= TIMEOUT_SLACK,
                _ => false,
            };
            if !keep {
                self.stream.set_read_timeout(timeout)?;
                self.armed = timeout;
            }
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
            let filled = self.buf.len();
            self.buf.resize(filled + READ_CHUNK, 0);
            let read = self.stream.read(&mut self.buf[filled..]);
            self.buf.truncate(filled + read.as_ref().map_or(0, |&n| n));
            match read {
                Ok(0) => return Err(ClientError::Protocol("server closed the connection".into())),
                Ok(_) => {}
                // The armed timeout ran out; `deadline` decides above
                // whether that was the real one.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if timeout.is_none() {
                        return Err(ClientError::Expired { pending: 0 });
                    }
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}

/// The remote (socket) half of a [`Session`].
struct RemoteTransport {
    reader: FrameReader,
    writer: TcpStream,
    proto: u64,
    /// Peer address, retained so a dropped connection can be re-dialed
    /// by [`Session::resume`] / the in-stream reconnect path.
    addr: std::net::SocketAddr,
    /// Protocol ceiling requested at connect, replayed on reconnect.
    max_proto: u64,
    /// Event frames that arrived while a response was awaited; drained
    /// by the next event-consuming call.
    buffered: VecDeque<JobEvent>,
}

impl RemoteTransport {
    /// Wrap a connected stream and negotiate the protocol
    /// (`max_proto <= 1` skips the handshake entirely).
    fn from_stream(
        stream: TcpStream,
        addr: std::net::SocketAddr,
        max_proto: u64,
    ) -> Result<RemoteTransport, ClientError> {
        // Small JSON-lines frames both ways: without nodelay, Nagle +
        // delayed ACK cost ~40ms per round-trip on loopback.
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut transport = RemoteTransport {
            reader: FrameReader::new(stream),
            writer,
            proto: 1,
            addr,
            max_proto,
            buffered: VecDeque::new(),
        };
        if max_proto >= 2 {
            match transport.roundtrip(&Request::Hello { proto: max_proto }) {
                Ok(Response::Welcome { proto, .. }) => transport.proto = proto.clamp(1, max_proto),
                // An older server answers the unknown verb with an
                // error; that *is* the negotiation — stay on v1.
                Ok(Response::Error { .. }) | Err(ClientError::Remote(_)) => {}
                Ok(other) => return Err(unexpected("hello", &other)),
                Err(e) => return Err(e),
            }
        }
        Ok(transport)
    }

    /// Dial `addr` fresh and negotiate — the reconnect path.
    fn open(addr: std::net::SocketAddr, max_proto: u64) -> Result<RemoteTransport, ClientError> {
        let stream = TcpStream::connect(addr)?;
        RemoteTransport::from_stream(stream, addr, max_proto)
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut text =
            serde_json::to_string(request).expect("in-tree serde_json cannot fail to render");
        text.push('\n');
        self.send_text(&text)
    }

    /// Write whole lines, their `\n` included, in one write.
    fn send_text(&mut self, text: &str) -> Result<(), ClientError> {
        self.writer.write_all(text.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Read frames until a *response* arrives, buffering any event
    /// frames that precede it.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            let line = self.reader.next_line(None)?;
            if line.trim().is_empty() {
                continue;
            }
            match classify(&line)? {
                ServerFrame::Event(ev) => self.buffered.push_back(ev),
                ServerFrame::Response(resp) => return Ok(*resp),
            }
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.read_response()
    }

    /// Submit one `submit_batch` line, re-sending it verbatim while the
    /// server answers `overloaded`: the server sheds whole frames, so
    /// re-sending never double-submits.
    fn submit_line(&mut self, line: &str) -> Result<Vec<SubmitReceipt>, ClientError> {
        let mut attempts = 0u32;
        loop {
            self.send_text(line)?;
            match self.read_response()? {
                Response::Error { message } => return Err(ClientError::Remote(message)),
                Response::Overloaded {
                    message,
                    retry_after_ms,
                    ..
                } => {
                    attempts += 1;
                    if attempts >= OVERLOAD_RETRY_LIMIT {
                        return Err(ClientError::Remote(message));
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                }
                Response::BatchSubmitted { jobs } => return Ok(jobs),
                other => return Err(unexpected("submit_batch", &other)),
            }
        }
    }

    /// Pipelined `result` fetch: write the requests for `jobs` ahead of
    /// their answers — at most [`PIPELINE_DEPTH`] unanswered at once,
    /// each top-up of the window in one write — and append the answers
    /// to `answers` in request order, which is the order the server
    /// writes them in. On an error, `answers` keeps what was read.
    fn fetch_results(
        &mut self,
        jobs: &[u64],
        answers: &mut Vec<Response>,
    ) -> Result<(), ClientError> {
        let mut sent = 0;
        for read in 0..jobs.len() {
            if sent < jobs.len() && sent - read <= PIPELINE_DEPTH / 2 {
                let end = (read + PIPELINE_DEPTH).min(jobs.len());
                let mut text = String::new();
                for &job in &jobs[sent..end] {
                    text.push_str(
                        &serde_json::to_string(&Request::Result { job })
                            .expect("in-tree serde_json cannot fail to render"),
                    );
                    text.push('\n');
                }
                self.writer.write_all(text.as_bytes())?;
                sent = end;
            }
            answers.push(self.read_response()?);
        }
        Ok(())
    }

    /// Next event frame (buffered or from the wire) before `deadline`.
    fn next_event(&mut self, deadline: Instant) -> Result<JobEvent, ClientError> {
        if let Some(ev) = self.buffered.pop_front() {
            return Ok(ev);
        }
        loop {
            let line = self.reader.next_line(Some(deadline))?;
            if line.trim().is_empty() {
                continue;
            }
            match classify(&line)? {
                ServerFrame::Event(ev) => return Ok(ev),
                ServerFrame::Response(resp) => {
                    return Err(ClientError::Protocol(format!(
                        "unsolicited response in event stream: {resp:?}"
                    )))
                }
            }
        }
    }
}

/// The watched `submit_batch` frames for `specs`: consecutive runs of
/// them, in order, each frame exactly as [`Request::SubmitBatch`] renders
/// it and at most `cap` bytes long, so that no frame meets a peer's
/// [`MAX_FRAME_BYTES`] bound. No specs give the one empty frame. A spec
/// too long to fit a frame on its own is an error.
fn batch_frames(
    specs: &[SubmitSpec],
    progress: bool,
    cap: usize,
) -> Result<Vec<String>, ClientError> {
    let render = |v: &dyn serde::Serialize| {
        serde_json::to_string(v).expect("in-tree serde_json cannot fail to render")
    };
    let empty = render(&Request::SubmitBatch {
        jobs: vec![],
        watch: true,
        progress,
    });
    let (head, tail) = empty
        .split_once("[]")
        .expect("an empty batch renders its jobs as []");
    let mut frames = Vec::new();
    let mut frame = String::new();
    for spec in specs {
        let job = render(spec);
        if head.len() + job.len() + tail.len() + 2 > cap {
            return Err(ClientError::Protocol(format!(
                "a {}-byte job does not fit a {cap}-byte submit_batch frame",
                job.len()
            )));
        }
        if !frame.is_empty() && frame.len() + job.len() + tail.len() + 2 > cap {
            frame.push(']');
            frame.push_str(tail);
            frames.push(std::mem::take(&mut frame));
        }
        if frame.is_empty() {
            frame.push_str(head);
            frame.push('[');
        } else {
            frame.push(',');
        }
        frame.push_str(&job);
    }
    if frame.is_empty() {
        frames.push(empty.clone());
    } else {
        frame.push(']');
        frame.push_str(tail);
        frames.push(frame);
    }
    Ok(frames)
}

/// Split the two server frame families on their tag field.
fn classify(line: &str) -> Result<ServerFrame, ClientError> {
    ServerFrame::parse(line).map_err(|e| ClientError::Protocol(format!("bad frame: {e}")))
}

/// The in-process half of a [`Session`]: the same event machinery a v2
/// server connection uses, minus the sockets.
struct LocalTransport {
    queue: Arc<JobQueue>,
    outbox: Arc<crate::events::Outbox>,
    subscription: u64,
}

enum Transport {
    Remote(RemoteTransport),
    Local(LocalTransport),
}

/// A multiplexed mapsrv session: many in-flight jobs over one
/// connection (or one in-process queue), waited on by consuming the
/// server-push event stream instead of polling.
///
/// The session tracks every submitted job as *in-flight* until a
/// [`Session::wait_all`] drains it, so repeat rounds compose naturally:
/// submit a batch, wait it out, submit the next.
///
/// ```no_run
/// use gmm_service::{JobConfig, Session, SubmitSpec};
/// # let (design, board) = unimplemented!();
/// let mut session = Session::connect("127.0.0.1:7171").unwrap();
/// let receipts = session
///     .submit_batch(vec![SubmitSpec::new(design, board, JobConfig::default())])
///     .unwrap();
/// session.watch(&receipts.iter().map(|r| r.job).collect::<Vec<_>>()).unwrap();
/// let outcomes = session.wait_all(std::time::Duration::from_secs(60)).unwrap();
/// assert!(outcomes[0].state.is_terminal());
/// ```
pub struct Session {
    transport: Transport,
    /// Jobs submitted through this session and not yet drained by
    /// [`Session::wait_all`], in submission order.
    inflight: Vec<u64>,
    /// Jobs subscribed for events, with the last state seen (drives the
    /// v1 fallback's transition synthesis too).
    watched: HashMap<u64, JobState>,
    /// Terminal states observed (from events or polls).
    terminal: HashMap<u64, (JobState, Option<Termination>)>,
    /// Whether watches subscribe to solver progress frames (default) or
    /// state transitions only; see [`Session::stream_progress`].
    want_progress: bool,
    /// Whether watches opt into queue-level `stats` event frames; see
    /// [`Session::stream_stats`].
    want_stats: bool,
    /// Connections re-established after a drop; see
    /// [`Session::reconnects`].
    reconnects: u64,
}

/// How many times [`Session::submit_batch`] re-sends a batch the
/// server shed with `Overloaded` before giving up.
const OVERLOAD_RETRY_LIMIT: u32 = 5;

/// Overall deadline for [`Session::resume`]'s reconnect backoff.
const RESUME_TIMEOUT: Duration = Duration::from_secs(30);

/// Most `result` requests [`Session::wait_all`] leaves unanswered on one
/// connection at a time, so a large round never writes unboundedly
/// ahead of its reads.
const PIPELINE_DEPTH: usize = 64;

impl Session {
    /// Connect and negotiate protocol v2. A server that rejects the
    /// `hello` verb leaves the session in v1 fallback mode (poll-based
    /// waiting with capped exponential backoff).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Session, ClientError> {
        Session::connect_with_proto(addr, PROTO_VERSION)
    }

    /// [`Session::connect`] with an explicit protocol ceiling;
    /// `max_proto <= 1` skips the handshake entirely and behaves as a
    /// bare v1 client (useful for compatibility testing).
    pub fn connect_with_proto(
        addr: impl ToSocketAddrs,
        max_proto: u64,
    ) -> Result<Session, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        let transport = RemoteTransport::from_stream(stream, peer, max_proto)?;
        Ok(Session {
            transport: Transport::Remote(transport),
            inflight: Vec::new(),
            watched: HashMap::new(),
            terminal: HashMap::new(),
            want_progress: true,
            want_stats: false,
            reconnects: 0,
        })
    }

    /// An in-process session over a [`JobQueue`]: the same submit /
    /// watch / wait surface as a remote session, driven by the same
    /// bounded event queues, with no sockets involved.
    pub fn local(queue: Arc<JobQueue>) -> Session {
        let outbox = queue.make_outbox(EVENT_QUEUE_CAP);
        let subscription = queue.subscribe(outbox.clone());
        Session {
            transport: Transport::Local(LocalTransport {
                queue,
                outbox,
                subscription,
            }),
            inflight: Vec::new(),
            watched: HashMap::new(),
            terminal: HashMap::new(),
            want_progress: true,
            want_stats: false,
            reconnects: 0,
        }
    }

    /// Which dialect this session speaks.
    pub fn proto(&self) -> Proto {
        match &self.transport {
            Transport::Remote(t) if t.proto >= 2 => Proto::V2,
            Transport::Remote(_) => Proto::V1,
            Transport::Local(_) => Proto::Local,
        }
    }

    /// The in-process queue, when this is a local session.
    pub fn queue(&self) -> Option<&Arc<JobQueue>> {
        match &self.transport {
            Transport::Local(t) => Some(&t.queue),
            Transport::Remote(_) => None,
        }
    }

    /// Jobs submitted and not yet drained by [`Session::wait_all`].
    pub fn inflight(&self) -> &[u64] {
        &self.inflight
    }

    /// Whether watches (including watch-at-submit) subscribe to bridged
    /// solver progress frames. Defaults to `true`; turn it off when
    /// only completion matters — state frames still stream (they are
    /// what `wait_all` consumes), but no per-phase/incumbent/node
    /// traffic is generated, serialized, or parsed. Applies to
    /// subsequent `submit_batch`/`watch` calls.
    pub fn stream_progress(&mut self, on: bool) {
        self.want_progress = on;
    }

    /// Opt this session's watches into queue-level `stats` event frames
    /// (`{"event":"stats",...}`, see [`crate::protocol::StatsDelta`]).
    /// Off by default; applies to subsequent `watch`/`attach` calls
    /// (the server keeps the flag sticky for the connection). Local
    /// sessions toggle their outbox directly.
    pub fn stream_stats(&mut self, on: bool) {
        self.want_stats = on;
        if let Transport::Local(t) = &self.transport {
            t.outbox.set_stats(on);
        }
    }

    /// How many times this session re-established a dropped connection
    /// (via [`Session::resume`] or the in-stream reconnect path).
    /// Always zero for local sessions.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Submit one instance (see [`Session::submit_batch`]).
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<SubmitReceipt, ClientError> {
        Ok(self
            .submit_batch(vec![spec])?
            .into_iter()
            .next()
            .expect("one receipt per spec"))
    }

    /// Submit many instances. Over protocol v2 the whole batch rides
    /// one `submit_batch` frame (one round-trip) and every job is
    /// **watched from submission** — the server registers it with this
    /// connection's event stream before a worker can claim it, so even
    /// a microsecond-scale solve streams its full
    /// queued→running→terminal sequence and progress frames. Local
    /// sessions get the same guarantee in-process. Over the v1 fallback
    /// each spec costs one `submit` round-trip and waiting degrades to
    /// polls. Receipts come back in submission order and every job
    /// joins the session's in-flight set.
    pub fn submit_batch(
        &mut self,
        specs: Vec<SubmitSpec>,
    ) -> Result<Vec<SubmitReceipt>, ClientError> {
        let want_progress = self.want_progress;
        let receipts = match &mut self.transport {
            Transport::Local(t) => specs
                .into_iter()
                .map(|spec| {
                    let deadline = spec.deadline_ms.map(Duration::from_millis);
                    SubmitReceipt::from(&t.queue.submit_watched(
                        spec.design,
                        spec.board,
                        spec.config,
                        deadline,
                        &t.outbox,
                        want_progress,
                    ))
                })
                .collect::<Vec<_>>(),
            Transport::Remote(t) if t.proto >= 2 => {
                let mut receipts = Vec::with_capacity(specs.len());
                for mut line in batch_frames(&specs, want_progress, MAX_FRAME_BYTES)? {
                    line.push('\n');
                    receipts.extend(t.submit_line(&line)?);
                }
                receipts
            }
            Transport::Remote(t) => {
                let mut receipts = Vec::with_capacity(specs.len());
                for spec in specs {
                    match t.roundtrip(&Request::Submit {
                        design: spec.design,
                        board: spec.board,
                        config: spec.config,
                        deadline_ms: spec.deadline_ms,
                    })? {
                        Response::Error { message } => return Err(ClientError::Remote(message)),
                        Response::Submitted {
                            job,
                            state,
                            cached,
                            key,
                        } => receipts.push(SubmitReceipt {
                            job,
                            state,
                            cached,
                            key,
                        }),
                        other => return Err(unexpected("submit", &other)),
                    }
                }
                receipts
            }
        };
        self.inflight.extend(receipts.iter().map(|r| r.job));
        // Streaming transports watched the jobs at submission; mirror
        // that in the session tables (the v1 fallback set is completed
        // by `watch`/`wait_all`).
        if !matches!(self.proto(), Proto::V1) {
            for r in &receipts {
                self.watched.entry(r.job).or_insert(JobState::Queued);
            }
        }
        Ok(receipts)
    }

    /// Subscribe to events for `jobs`. Streaming transports (v2 and
    /// local) immediately receive one synthetic `state` frame per job
    /// carrying its current state, then live transitions and bridged
    /// progress frames; the v1 fallback records the set and synthesizes
    /// state events from poll transitions inside
    /// [`Session::for_each_event`]. Returns the ids actually watched.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use gmm_service::{JobConfig, JobEvent, JobQueue, QueueOptions, Session, SubmitSpec};
    /// use gmm_workloads::{random_design, RandomDesignSpec};
    ///
    /// let mut opts = QueueOptions::default();
    /// opts.workers = 1;
    /// let mut session = Session::local(Arc::new(JobQueue::new(opts)));
    ///
    /// let design = random_design(&RandomDesignSpec {
    ///     segments: 4,
    ///     ..RandomDesignSpec::default()
    /// });
    /// let board = gmm_arch::Board::prototyping("XCV300", 1).unwrap();
    /// let receipt = session
    ///     .submit(SubmitSpec::new(design, board, JobConfig::default()))
    ///     .unwrap();
    ///
    /// session.watch(&[receipt.job]).unwrap();
    /// let mut states = Vec::new();
    /// session
    ///     .for_each_event(std::time::Duration::from_secs(120), |ev| {
    ///         if let JobEvent::State { state, .. } = ev {
    ///             states.push(*state);
    ///         }
    ///     })
    ///     .unwrap();
    /// assert!(states.last().unwrap().is_terminal());
    /// ```
    pub fn watch(&mut self, jobs: &[u64]) -> Result<Vec<u64>, ClientError> {
        let want_progress = self.want_progress;
        let watching = match &mut self.transport {
            Transport::Local(t) => {
                let (watching, _unknown) = t
                    .outbox
                    .watch(jobs, want_progress, |id| t.queue.state_snapshot(id));
                watching
            }
            Transport::Remote(t) if t.proto >= 2 => {
                match t.roundtrip(&Request::Watch {
                    jobs: jobs.to_vec(),
                    progress: want_progress,
                    stats: self.want_stats,
                })? {
                    Response::Error { message } => return Err(ClientError::Remote(message)),
                    Response::Watching { watching, .. } => watching,
                    other => return Err(unexpected("watch", &other)),
                }
            }
            // v1: no wire support — poll-based synthesis covers the set.
            Transport::Remote(_) => jobs.to_vec(),
        };
        for &job in &watching {
            self.watched.entry(job).or_insert(JobState::Queued);
        }
        Ok(watching)
    }

    /// Watch every in-flight job not already watched. On streaming
    /// transports `submit_batch` watches at submission, so this is
    /// normally a no-op; it completes the set for the v1 fallback and
    /// for jobs watched explicitly after the fact. Skipping
    /// already-tracked jobs also avoids re-snapshotting terminal jobs
    /// (whose watch entries are retired on delivery).
    pub fn watch_all(&mut self) -> Result<Vec<u64>, ClientError> {
        let jobs: Vec<u64> = self
            .inflight
            .iter()
            .copied()
            .filter(|j| !self.watched.contains_key(j) && !self.terminal.contains_key(j))
            .collect();
        if jobs.is_empty() {
            return Ok(jobs);
        }
        self.watch(&jobs)
    }

    /// Re-subscribe retained jobs after a connection loss (or from a
    /// brand-new session pointed at the same service). Dead remote
    /// connections are re-dialed with capped exponential backoff; the
    /// watches are then replayed through the idempotent `attach` verb,
    /// so nothing is lost across the gap — the server answers each
    /// job's *current* state as a snapshot frame before streaming live
    /// transitions, and already-completed jobs answer terminally.
    /// Every resumed job (re)joins the in-flight set, so a plain
    /// [`Session::wait_all`] afterwards recovers the batch. Returns the
    /// ids the service still knows about.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use gmm_service::{JobConfig, JobQueue, QueueOptions, Session, SubmitSpec};
    /// use gmm_workloads::{random_design, RandomDesignSpec};
    ///
    /// let queue = Arc::new(JobQueue::new(QueueOptions::default()));
    /// let design = random_design(&RandomDesignSpec {
    ///     segments: 4,
    ///     ..RandomDesignSpec::default()
    /// });
    /// let board = gmm_arch::Board::prototyping("XCV300", 1).unwrap();
    ///
    /// // First session submits and keeps the receipts...
    /// let mut session = Session::local(queue.clone());
    /// let receipts = session
    ///     .submit_batch(vec![SubmitSpec::new(design, board, JobConfig::default())])
    ///     .unwrap();
    ///
    /// // ...a later session resumes from those receipts alone.
    /// let mut session = Session::local(queue);
    /// let attached = session.resume(&receipts).unwrap();
    /// assert_eq!(attached, vec![receipts[0].job]);
    /// let outcomes = session.wait_all(std::time::Duration::from_secs(120)).unwrap();
    /// assert!(outcomes[0].state.is_terminal());
    /// ```
    pub fn resume(&mut self, receipts: &[SubmitReceipt]) -> Result<Vec<u64>, ClientError> {
        let jobs: Vec<u64> = receipts.iter().map(|r| r.job).collect();
        for &job in &jobs {
            if !self.inflight.contains(&job) {
                self.inflight.push(job);
            }
        }
        let want_progress = self.want_progress;
        let want_stats = self.want_stats;
        let attached = match self.proto() {
            Proto::Local => {
                let Transport::Local(t) = &mut self.transport else {
                    unreachable!("proto() said local")
                };
                if want_stats {
                    t.outbox.set_stats(true);
                }
                let (watching, _unknown) = t
                    .outbox
                    .watch(&jobs, want_progress, |id| t.queue.state_snapshot(id));
                watching
            }
            Proto::V2 => {
                let request = Request::Attach {
                    jobs: jobs.clone(),
                    progress: want_progress,
                    stats: want_stats,
                };
                let first = {
                    let Transport::Remote(t) = &mut self.transport else {
                        unreachable!("proto() said remote v2")
                    };
                    t.roundtrip(&request)
                };
                let resp = match first {
                    // The old connection was already dead: re-dial and
                    // replay the attach on the fresh transport.
                    Err(e) if is_disconnect(&e) => {
                        self.reconnect(Instant::now() + RESUME_TIMEOUT)?;
                        let Transport::Remote(t) = &mut self.transport else {
                            unreachable!("reconnect keeps the transport remote")
                        };
                        t.roundtrip(&request)?
                    }
                    other => other?,
                };
                match resp {
                    Response::Error { message } => return Err(ClientError::Remote(message)),
                    Response::Attached { attached, .. } => {
                        attached.into_iter().map(|s| s.job).collect()
                    }
                    other => return Err(unexpected("attach", &other)),
                }
            }
            // v1: no wire support — poll-based synthesis covers the set.
            Proto::V1 => jobs.clone(),
        };
        for &job in &attached {
            self.watched.entry(job).or_insert(JobState::Queued);
        }
        // Drop ids the service no longer knows from the in-flight set
        // so `wait_all` does not hang on them.
        self.inflight
            .retain(|j| attached.contains(j) || !jobs.contains(j));
        Ok(attached)
    }

    /// Re-dial a dropped remote connection with capped exponential
    /// backoff (until `deadline`), renegotiate the protocol, and
    /// re-attach every non-terminal watched job on the fresh transport.
    fn reconnect(&mut self, deadline: Instant) -> Result<(), ClientError> {
        let (addr, max_proto) = match &self.transport {
            Transport::Remote(t) => (t.addr, t.max_proto),
            Transport::Local(_) => {
                return Err(ClientError::Protocol("reconnect on a local session".into()))
            }
        };
        let jobs: Vec<u64> = self
            .watched
            .keys()
            .copied()
            .filter(|j| !self.terminal.contains_key(j))
            .collect();
        let mut backoff = Duration::from_millis(10);
        loop {
            let attempt = (|| {
                let mut fresh = RemoteTransport::open(addr, max_proto)?;
                if fresh.proto >= 2 && !jobs.is_empty() {
                    match fresh.roundtrip(&Request::Attach {
                        jobs: jobs.clone(),
                        progress: self.want_progress,
                        stats: self.want_stats,
                    })? {
                        Response::Error { message } => return Err(ClientError::Remote(message)),
                        Response::Attached { .. } => {}
                        other => return Err(unexpected("attach", &other)),
                    }
                }
                Ok(fresh)
            })();
            match attempt {
                Ok(fresh) => {
                    self.transport = Transport::Remote(fresh);
                    self.reconnects += 1;
                    return Ok(());
                }
                // Still down (or flapped again mid-handshake): wait it
                // out below and retry.
                Err(e) if is_disconnect(&e) => {}
                Err(e) => return Err(e),
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ClientError::Expired {
                    pending: jobs.len(),
                });
            }
            std::thread::sleep(backoff.min(deadline - now));
            backoff = (backoff * 2).min(Duration::from_millis(500));
        }
    }

    /// Consume events until every watched job is terminal (or the
    /// deadline, armed once at entry, expires —
    /// [`ClientError::Expired`]). `on_event` sees every frame: state
    /// transitions (terminal ones carry the full [`Termination`]) and
    /// bridged progress frames. On the v1 fallback, state transitions
    /// are synthesized from polls with capped exponential backoff and
    /// no progress frames exist.
    pub fn for_each_event(
        &mut self,
        timeout: Duration,
        mut on_event: impl FnMut(&JobEvent),
    ) -> Result<(), ClientError> {
        let deadline = Instant::now() + timeout;
        match self.proto() {
            Proto::Local => {
                let Transport::Local(t) = &mut self.transport else {
                    unreachable!("proto() said local")
                };
                loop {
                    if pending_jobs(&self.watched, &self.terminal) == 0 {
                        return Ok(());
                    }
                    match t.outbox.pop(Some(deadline)) {
                        Popped::Frame(Frame::Event(ev)) => {
                            note_event(&mut self.watched, &mut self.terminal, &ev);
                            on_event(&ev);
                        }
                        Popped::Frame(Frame::Response(_)) => {
                            return Err(ClientError::Protocol(
                                "response frame in a local session".into(),
                            ))
                        }
                        Popped::TimedOut => {
                            return Err(ClientError::Expired {
                                pending: pending_jobs(&self.watched, &self.terminal),
                            })
                        }
                        Popped::Closed => {
                            return Err(ClientError::Protocol("local outbox closed".into()))
                        }
                    }
                }
            }
            Proto::V2 => loop {
                if pending_jobs(&self.watched, &self.terminal) == 0 {
                    return Ok(());
                }
                // Re-borrow the transport each turn so a dropped
                // connection can be replaced underneath the loop.
                let next = {
                    let Transport::Remote(t) = &mut self.transport else {
                        unreachable!("proto() said remote v2")
                    };
                    t.next_event(deadline)
                };
                match next {
                    Ok(ev) => {
                        note_event(&mut self.watched, &mut self.terminal, &ev);
                        on_event(&ev);
                    }
                    Err(ClientError::Expired { .. }) => {
                        return Err(ClientError::Expired {
                            pending: pending_jobs(&self.watched, &self.terminal),
                        })
                    }
                    // The connection died mid-stream: re-dial with
                    // capped backoff and re-attach every non-terminal
                    // watch. The server snapshots each job's current
                    // state on attach, so no transition is lost.
                    Err(e) if is_disconnect(&e) => self.reconnect(deadline)?,
                    Err(e) => return Err(e),
                }
            },
            Proto::V1 => {
                // v1 fallback: poll with capped exponential backoff,
                // synthesizing a state event per observed transition.
                // The backoff resets whenever something moved, so bursts
                // of completions drain quickly while long solves settle
                // to one poll sweep per cap interval.
                let mut interval = Duration::from_millis(1);
                loop {
                    let pending: Vec<u64> = self
                        .watched
                        .keys()
                        .copied()
                        .filter(|j| !self.terminal.contains_key(j))
                        .collect();
                    if pending.is_empty() {
                        return Ok(());
                    }
                    let mut moved = false;
                    for job in pending {
                        let Transport::Remote(t) = &mut self.transport else {
                            unreachable!("transport cannot change mid-call")
                        };
                        let state = match t.roundtrip(&Request::Poll { job })? {
                            Response::Error { message } => {
                                return Err(ClientError::Remote(message))
                            }
                            Response::PollState { state, .. } => state,
                            other => return Err(unexpected("poll", &other)),
                        };
                        if self.watched.get(&job) != Some(&state) {
                            moved = true;
                            let ev = JobEvent::State {
                                job,
                                state,
                                termination: None,
                            };
                            note_event(&mut self.watched, &mut self.terminal, &ev);
                            on_event(&ev);
                        }
                    }
                    if pending_jobs(&self.watched, &self.terminal) == 0 {
                        return Ok(());
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ClientError::Expired {
                            pending: pending_jobs(&self.watched, &self.terminal),
                        });
                    }
                    interval = if moved {
                        Duration::from_millis(1)
                    } else {
                        (interval * 2).min(Duration::from_millis(100))
                    };
                    std::thread::sleep(interval.min(deadline - now));
                }
            }
        }
    }

    /// Wait for every in-flight job to reach a terminal state (watching
    /// any that are not yet watched), fetch all results, and drain the
    /// in-flight set. Outcomes come back in submission order with
    /// `termination` filled from terminal events (v2/local).
    ///
    /// Over protocol v2 the results cost one round trip, not one per
    /// job: the `result` requests for every job go out in one write
    /// (windows of at most 64 for larger rounds), then the N answers are
    /// read in order. A connection that drops mid-pipeline is re-dialed
    /// once and only the unanswered requests are re-sent. Local and v1
    /// sessions fetch one result at a time.
    pub fn wait_all(&mut self, timeout: Duration) -> Result<Vec<RemoteOutcome>, ClientError> {
        self.watch_all()?;
        self.for_each_event(timeout, |_| {})?;
        let jobs = std::mem::take(&mut self.inflight);
        let mut outcomes = Vec::with_capacity(jobs.len());
        if self.proto() == Proto::V2 {
            let answers = self.remote_results(&jobs)?;
            for (&job, answer) in jobs.iter().zip(answers) {
                let out = remote_outcome(answer, self.terminal.get(&job).and_then(|(_, t)| *t))?;
                if out.job != job {
                    return Err(ClientError::Protocol(format!(
                        "result for job {} answered the request for job {job}",
                        out.job
                    )));
                }
                outcomes.push(out);
            }
        } else {
            for &job in &jobs {
                let mut out = self.result(job)?;
                if out.termination.is_none() {
                    out.termination = self.terminal.get(&job).and_then(|(_, t)| *t);
                }
                outcomes.push(out);
            }
        }
        for job in &jobs {
            self.watched.remove(job);
            self.terminal.remove(job);
        }
        Ok(outcomes)
    }

    /// Fetch one job's result (any transport; does not touch the
    /// in-flight set).
    pub fn result(&mut self, job: u64) -> Result<RemoteOutcome, ClientError> {
        match &mut self.transport {
            Transport::Local(t) => {
                let out = t
                    .queue
                    .outcome(job)
                    .ok_or_else(|| ClientError::Remote(format!("unknown job {job}")))?;
                let solution = out.solution_json.as_ref().map(|entry| {
                    serde_json::from_str::<Value>(&entry.solution_json)
                        .expect("cache stores canonical JSON")
                });
                Ok(RemoteOutcome {
                    job,
                    state: out.state,
                    cached: out.cached,
                    objective: out.objective,
                    solution,
                    error: out.error,
                    termination: out.termination,
                })
            }
            Transport::Remote(_) => {
                let answer = self.remote_results(&[job])?.remove(0);
                remote_outcome(answer, self.terminal.get(&job).and_then(|(_, t)| *t))
            }
        }
    }

    /// The answers to `result` requests for `jobs`, in order, fetched in
    /// one pipeline ([`RemoteTransport::fetch_results`]). Every request
    /// survives one connection drop: the session re-dials (capped
    /// backoff, short deadline), re-attaches its watches, and re-sends
    /// only the requests not yet answered (`result` is idempotent). It
    /// dials again only if the fresh connection answered something first.
    fn remote_results(&mut self, jobs: &[u64]) -> Result<Vec<Response>, ClientError> {
        let mut answers = Vec::with_capacity(jobs.len());
        let mut reconnected = false;
        loop {
            let before = answers.len();
            let Transport::Remote(t) = &mut self.transport else {
                return Err(ClientError::Protocol(
                    "remote results on a local session".into(),
                ));
            };
            match t.fetch_results(&jobs[before..], &mut answers) {
                Ok(()) => return Ok(answers),
                Err(e) if is_disconnect(&e) && (!reconnected || answers.len() > before) => {
                    reconnected = true;
                    self.reconnect(Instant::now() + RESUME_TIMEOUT)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Cancel a job; returns its state as of the call.
    pub fn cancel(&mut self, job: u64) -> Result<JobState, ClientError> {
        match &mut self.transport {
            Transport::Local(t) => t
                .queue
                .cancel(job)
                .ok_or_else(|| ClientError::Remote(format!("unknown job {job}"))),
            Transport::Remote(t) => match t.roundtrip(&Request::Cancel { job })? {
                Response::Error { message } => Err(ClientError::Remote(message)),
                Response::CancelState { state, .. } => Ok(state),
                other => Err(unexpected("cancel", &other)),
            },
        }
    }

    /// Service statistics. Local sessions read the queue directly
    /// (protocol counters are a wire concept and read zero).
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match &mut self.transport {
            Transport::Local(t) => Ok(service_stats(&t.queue, Default::default())),
            Transport::Remote(t) => match t.roundtrip(&Request::Stats)? {
                Response::Error { message } => Err(ClientError::Remote(message)),
                Response::Stats(s) => Ok(s),
                other => Err(unexpected("stats", &other)),
            },
        }
    }

    /// Ask a remote server to shut down (local sessions shut their
    /// queue down directly).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match &mut self.transport {
            Transport::Local(t) => {
                t.queue.shutdown();
                Ok(())
            }
            Transport::Remote(t) => match t.roundtrip(&Request::Shutdown)? {
                Response::Error { message } => Err(ClientError::Remote(message)),
                Response::Bye => Ok(()),
                other => Err(unexpected("shutdown", &other)),
            },
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Transport::Local(t) = &self.transport {
            t.queue.unsubscribe(t.subscription);
            t.outbox.close();
        }
    }
}

/// Does this error mean "the connection is gone" (worth re-dialing)
/// rather than "the server refused" (not)?
fn is_disconnect(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(_))
        || matches!(e, ClientError::Protocol(m) if m == "server closed the connection")
}

/// Watched jobs that are not yet terminal.
fn pending_jobs(
    watched: &HashMap<u64, JobState>,
    terminal: &HashMap<u64, (JobState, Option<Termination>)>,
) -> usize {
    watched.keys().filter(|j| !terminal.contains_key(j)).count()
}

/// Track a consumed event in the session's state tables.
fn note_event(
    watched: &mut HashMap<u64, JobState>,
    terminal: &mut HashMap<u64, (JobState, Option<Termination>)>,
    ev: &JobEvent,
) {
    if let JobEvent::State {
        job,
        state,
        termination,
    } = ev
    {
        watched.insert(*job, *state);
        if state.is_terminal() {
            terminal.insert(*job, (*state, *termination));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(jobs: Vec<SubmitSpec>, progress: bool) -> String {
        serde_json::to_string(&Request::SubmitBatch {
            jobs,
            watch: true,
            progress,
        })
        .unwrap()
    }

    #[test]
    fn batch_frames_split_under_the_cap() {
        // Specs of different lengths, so frames break at uneven counts.
        let specs: Vec<SubmitSpec> = (0..9)
            .map(|i| {
                let mut b = gmm_design::DesignBuilder::new(format!("d{}", "x".repeat(i * 7)));
                b.segment("s", 64, 8).unwrap();
                let board = Board::prototyping("XCV300", 1).unwrap();
                SubmitSpec::new(b.build().unwrap(), board, JobConfig::default())
            })
            .collect();
        let whole = batch(specs.clone(), false);
        assert_eq!(
            batch_frames(&specs, false, whole.len()).unwrap(),
            [whole.as_str()]
        );
        // The smallest cap that fits every spec on its own.
        let floor = specs
            .iter()
            .map(|s| batch(vec![s.clone()], false).len())
            .max()
            .unwrap();
        for cap in [floor, floor + 1, 2 * floor, whole.len() - 1] {
            let frames = batch_frames(&specs, false, cap).unwrap();
            assert!(frames.len() > 1, "cap {cap} splits");
            let mut back = Vec::new();
            for frame in &frames {
                assert!(frame.len() <= cap, "{} > {cap}", frame.len());
                let Request::SubmitBatch {
                    jobs,
                    watch: true,
                    progress: false,
                } = serde_json::from_str(frame).unwrap()
                else {
                    panic!("a watched submit_batch frame: {frame}");
                };
                assert_eq!(frame, &batch(jobs.clone(), false));
                back.extend(jobs);
            }
            assert_eq!(back, specs, "every spec once, in order");
        }
        let err = batch_frames(&specs, false, floor - 1).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
        assert_eq!(batch_frames(&[], true, 1).unwrap(), [batch(vec![], true)]);
    }
}
