//! `mapsrv` — the batch mapping daemon.
//!
//! Listens on a `std::net::TcpListener`, speaks the JSON-lines
//! [`crate::protocol`] (v1 verbs plus the v2 session surface), and
//! drives a shared [`JobQueue`]. Each connection owns **two** threads:
//!
//! * a *reader* parsing request lines and producing responses, and
//! * a *writer* draining the connection's [`Outbox`](crate::events::Outbox)
//!   — a single FIFO that merges responses with server-push event
//!   frames, so write order always matches production order and no two
//!   threads ever interleave bytes on the socket. Requests are answered
//!   one at a time, so responses leave in request order and clients may
//!   pipeline.
//!
//! The event fan-out runs from the queue's worker callbacks into the
//! bounded outboxes: a `watch`ed connection that stops reading fills
//! its own outbox, drops its own oldest progress frames (counted in
//! `events_dropped`), and affects nobody else — solver workers never
//! block on a socket. Connections are few and long-lived (a batch
//! client holds one socket for its whole run); the solve parallelism
//! lives in the queue workers, not in the connection handlers.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::events::writer_loop;
use crate::protocol::{
    frame_too_long, peek_frame, read_frame, render_response, result_frame, AttachSnapshot,
    FrameRead, ProtoVersions, Request, Response, ServiceStats, SubmitReceipt, CAPABILITIES,
    PROTO_VERSION,
};
use crate::queue::{JobQueue, Overloaded};

/// Per-connection cap on queued progress frames (state frames and
/// responses are never dropped; see [`Outbox`](crate::events::Outbox)).
pub const EVENT_QUEUE_CAP: usize = 1024;

/// State shared by the acceptor and every connection thread.
struct Shared {
    queue: Arc<JobQueue>,
    stop: AtomicBool,
    /// Connections whose first frame was a plain v1 verb.
    proto_v1: AtomicU64,
    /// Connections that negotiated `hello` to proto ≥ 2.
    proto_v2: AtomicU64,
}

/// A running `mapsrv` instance.
pub struct MapServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl MapServer {
    /// Bind and start serving. `addr` may use port 0 for an ephemeral port
    /// (the bound address is reported by [`MapServer::local_addr`]).
    pub fn start(addr: impl ToSocketAddrs, queue: Arc<JobQueue>) -> std::io::Result<MapServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue,
            stop: AtomicBool::new(false),
            proto_v1: AtomicU64::new(0),
            proto_v2: AtomicU64::new(0),
        });

        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("mapsrv-accept".into())
                .spawn(move || accept_loop(listener, local, shared))?
        };

        Ok(MapServer {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.shared.queue
    }

    /// Whether a `shutdown` verb has been received.
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Block until a client sends `shutdown`, then drain the queue.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.queue.shutdown();
    }

    /// Ask the acceptor to stop from this process (equivalent to a client
    /// sending the `shutdown` verb).
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        wake_acceptor(self.addr);
    }
}

impl Drop for MapServer {
    fn drop(&mut self) {
        self.request_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// The blocked `accept()` only returns when a connection arrives, so the
/// stop path opens (and immediately drops) one.
fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: TcpListener, local: SocketAddr, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // JSON-lines request/response over small frames: Nagle + delayed
        // ACK would add ~40ms per round-trip, dwarfing microsecond solves.
        let _ = stream.set_nodelay(true);
        let shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("mapsrv-conn".into())
            .spawn(move || {
                // Connection threads are detached; they die with their
                // socket. Errors just end the connection.
                let _ = serve_connection(stream, local, &shared);
            });
    }
}

fn serve_connection(
    stream: TcpStream,
    local: SocketAddr,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    let queue = &shared.queue;
    let outbox = queue.make_outbox(EVENT_QUEUE_CAP);
    let writer = {
        let stream = stream.try_clone()?;
        let outbox = outbox.clone();
        std::thread::Builder::new()
            .name("mapsrv-conn-writer".into())
            .spawn(move || writer_loop(stream, &outbox))?
    };

    // Once per connection: v2 on a successful hello, v1 on any other
    // first verb.
    let mut counted = false;
    // Whether this connection negotiated protocol v2 — structured
    // `overloaded` rejections are v2-only (v1 gets a plain error).
    let mut negotiated_v2 = false;
    // Lazily created on the first `watch`/`attach`.
    let mut subscription: Option<u64> = None;

    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let result = (|| -> std::io::Result<()> {
        loop {
            let line = match read_frame(&mut reader, &mut buf)? {
                FrameRead::Line(line) => line,
                FrameRead::TooLong => {
                    outbox.push_response(render_response(&frame_too_long()));
                    break;
                }
                FrameRead::Eof => break,
            };
            if line.trim().is_empty() {
                continue;
            }
            let request = serde_json::from_str::<Request>(line);
            let shutting_down = matches!(request, Ok(Request::Shutdown));
            let text = match request {
                // A connection that outlives another client's shutdown verb
                // can still poll results, but its submits must fail loudly —
                // the queue workers are (being) joined and would never pop
                // them.
                Ok(Request::Submit { .. } | Request::SubmitBatch { .. })
                    if shared.stop.load(Ordering::Acquire) =>
                {
                    render_response(&Response::Error {
                        message: "server is shutting down".into(),
                    })
                }
                Ok(request) => {
                    if !counted {
                        counted = true;
                        match &request {
                            Request::Hello { proto } if *proto >= 2 => {
                                shared.proto_v2.fetch_add(1, Ordering::Relaxed)
                            }
                            _ => shared.proto_v1.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                    match request {
                        Request::Hello { proto } => {
                            negotiated_v2 = proto >= 2;
                            handle(Request::Hello { proto }, queue)
                        }
                        Request::Watch {
                            jobs,
                            progress,
                            stats,
                        } => {
                            if subscription.is_none() {
                                // Subscribe *before* snapshotting, so no
                                // transition can slip between the two.
                                subscription = Some(queue.subscribe(outbox.clone()));
                            }
                            if stats {
                                outbox.set_stats(true);
                            }
                            let (watching, unknown) =
                                outbox.watch(&jobs, progress, |id| queue.state_snapshot(id));
                            render_response(&Response::Watching { watching, unknown })
                        }
                        // Reconnect re-subscription: answer every known
                        // id's current state in the response (terminal
                        // jobs terminally — a client that reconnects
                        // after the last transition still completes),
                        // then stream the live ones exactly like
                        // `watch`. Idempotent: the outbox skips ids this
                        // connection already watches, and the rank gate
                        // suppresses duplicate snapshot frames.
                        Request::Attach {
                            jobs,
                            progress,
                            stats,
                        } => {
                            if subscription.is_none() {
                                subscription = Some(queue.subscribe(outbox.clone()));
                            }
                            if stats {
                                outbox.set_stats(true);
                            }
                            let mut attached = Vec::with_capacity(jobs.len());
                            let mut unknown = Vec::new();
                            for &job in &jobs {
                                match queue.state_snapshot(job) {
                                    Some((state, termination)) => attached.push(AttachSnapshot {
                                        job,
                                        state,
                                        termination,
                                    }),
                                    None => unknown.push(job),
                                }
                            }
                            outbox.watch(&jobs, progress, |id| queue.state_snapshot(id));
                            render_response(&Response::Attached { attached, unknown })
                        }
                        // A watched batch registers each job with this
                        // connection's outbox at submission time, so the
                        // whole queued→running→terminal sequence (and,
                        // when wanted, every progress frame) streams —
                        // the generic `handle` path below covers
                        // unwatched batches.
                        Request::SubmitBatch {
                            jobs,
                            watch: true,
                            progress,
                        } => match queue.check_admission() {
                            Err(over) => render_response(&overloaded_response(over, negotiated_v2)),
                            Ok(()) => {
                                if subscription.is_none() {
                                    subscription = Some(queue.subscribe(outbox.clone()));
                                }
                                let receipts = jobs
                                    .into_iter()
                                    .map(|spec| {
                                        let deadline =
                                            spec.deadline_ms.map(std::time::Duration::from_millis);
                                        SubmitReceipt::from(&queue.submit_watched(
                                            spec.design,
                                            spec.board,
                                            spec.config,
                                            deadline,
                                            &outbox,
                                            progress,
                                        ))
                                    })
                                    .collect();
                                render_response(&Response::BatchSubmitted { jobs: receipts })
                            }
                        },
                        // The admission gate runs once per submit
                        // request (a batch is admitted or shed whole —
                        // receipts never cover half a frame).
                        other @ (Request::Submit { .. } | Request::SubmitBatch { .. }) => {
                            match queue.check_admission() {
                                Err(over) => {
                                    render_response(&overloaded_response(over, negotiated_v2))
                                }
                                Ok(()) => handle(other, queue),
                            }
                        }
                        Request::Stats => render_response(&stats_response(shared)),
                        other => handle(other, queue),
                    }
                }
                Err(e) => render_response(&Response::Error {
                    message: format!("bad request: {e}"),
                }),
            };
            outbox.push_response(text);
            if shutting_down {
                shared.stop.store(true, Ordering::Release);
                wake_acceptor(local);
                break;
            }
        }
        Ok(())
    })();

    if let Some(id) = subscription {
        queue.unsubscribe(id);
    }
    outbox.close();
    let _ = writer.join();
    result
}

/// The structured admission rejection. v2 connections get the
/// machine-readable `overloaded` kind with its back-off hint; a v1
/// connection (which cannot be assumed to parse `kind`) gets a plain
/// error carrying the same information in prose.
fn overloaded_response(over: Overloaded, v2: bool) -> Response {
    let message = format!(
        "queue is at its max_inflight bound ({} in flight >= {}); retry in {} ms",
        over.inflight, over.max_inflight, over.retry_after_ms
    );
    if v2 {
        Response::Overloaded {
            message,
            inflight: over.inflight,
            max_inflight: over.max_inflight,
            retry_after_ms: over.retry_after_ms,
        }
    } else {
        Response::Error { message }
    }
}

/// The `stats` verb, including the server-level protocol counters.
fn stats_response(shared: &Shared) -> Response {
    Response::Stats(service_stats(
        &shared.queue,
        ProtoVersions {
            v1: shared.proto_v1.load(Ordering::Relaxed),
            v2: shared.proto_v2.load(Ordering::Relaxed),
        },
    ))
}

/// Assemble the wire stats payload from queue statistics — the one
/// implementation behind the `stats` verb, the connection-less
/// [`handle`] path, and local `Session::stats`.
///
/// Stats doubles as the idle-time retention tick: age-based pruning
/// otherwise only runs on submissions and terminal transitions, so a
/// quiet daemon sweeps whenever someone looks at it.
pub fn service_stats(queue: &JobQueue, proto_versions: ProtoVersions) -> ServiceStats {
    queue.sweep_retention();
    ServiceStats {
        proto_versions,
        ..queue.stats()
    }
}

/// Map one request to its response line against the queue.
///
/// This is the connection-independent core: every verb except `watch`
/// (which needs a streaming connection and answers an error here) and
/// the connection-counting side of `stats` (`proto_versions` reads as
/// zero through this path) behaves exactly as over a socket. A `result`
/// or `peek` hit carries the cache entry's stored payload bytes
/// verbatim ([`result_frame`], [`peek_frame`]).
pub fn handle(request: Request, queue: &JobQueue) -> String {
    let response = match request {
        Request::Hello { proto } => Response::Welcome {
            proto: proto.clamp(1, PROTO_VERSION),
            capabilities: CAPABILITIES.iter().map(|c| c.to_string()).collect(),
        },
        Request::Submit {
            design,
            board,
            config,
            deadline_ms,
        } => {
            let deadline = deadline_ms.map(std::time::Duration::from_millis);
            let ticket = queue.submit_with_deadline(design, board, config, deadline);
            Response::Submitted {
                job: ticket.id,
                state: ticket.state,
                cached: ticket.cached,
                key: ticket.key.to_hex(),
            }
        }
        Request::SubmitBatch { jobs, .. } => {
            // `watch` needs a streaming connection; this connection-less
            // path submits without watching.
            let receipts = jobs
                .into_iter()
                .map(|spec| {
                    let deadline = spec.deadline_ms.map(std::time::Duration::from_millis);
                    SubmitReceipt::from(&queue.submit_with_deadline(
                        spec.design,
                        spec.board,
                        spec.config,
                        deadline,
                    ))
                })
                .collect();
            Response::BatchSubmitted { jobs: receipts }
        }
        Request::Watch { .. } => Response::Error {
            message: "watch requires a streaming connection".into(),
        },
        Request::Attach { .. } => Response::Error {
            message: "attach requires a streaming connection".into(),
        },
        // Non-promoting cache probe: no solve, no queueing, no LRU or
        // counter side effects — the router's peer-fill path leans on
        // this being free of observable effects on the peer.
        Request::Peek { key } => match crate::hash::InstanceKey::from_hex(&key) {
            None => Response::Error {
                message: format!("peek: `{key}` is not a 32-hex-digit instance key"),
            },
            Some(key) => {
                let entry = queue.cache().peek(key);
                return peek_frame(
                    entry.is_some(),
                    entry.as_ref().map(|e| e.objective),
                    entry.as_ref().map(|e| e.solution_json.as_str()),
                );
            }
        },
        Request::Poll { job } => match queue.poll(job) {
            Some(state) => Response::PollState { job, state },
            None => Response::Error {
                message: format!("unknown job {job}"),
            },
        },
        // The memory cache only ever holds canonical JSON: solves store
        // `canonical_json` output, and a disk-tier record is parsed
        // before it is promoted into memory.
        Request::Result { job } => match queue.outcome(job) {
            Some(out) => {
                return result_frame(
                    job,
                    out.state,
                    out.cached,
                    out.objective,
                    out.solution_json.as_ref().map(|e| e.solution_json.as_str()),
                    out.error.as_deref(),
                )
            }
            None => Response::Error {
                message: format!("unknown job {job}"),
            },
        },
        Request::Cancel { job } => match queue.cancel(job) {
            Some(state) => Response::CancelState { job, state },
            None => Response::Error {
                message: format!("unknown job {job}"),
            },
        },
        Request::Stats => Response::Stats(service_stats(queue, ProtoVersions::default())),
        Request::Shutdown => Response::Bye,
    };
    render_response(&response)
}
