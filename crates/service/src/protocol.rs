//! The `mapsrv` JSON-lines wire protocol (v1 verbs + the v2 session
//! surface).
//!
//! One JSON object per line in each direction. Requests carry a `"verb"`
//! field; responses echo the verb and carry `"ok": true`, or are
//! `{"ok": false, "error": …}`. A protocol-v2 connection additionally
//! receives server-push **event** frames (tagged `"event"`, never
//! `"ok"`) once it `watch`es jobs.
//!
//! ## v1 (poll-oriented; the `nc`/scripting dialect — unchanged)
//!
//! ```text
//! → {"verb":"submit","design":{…},"board":{…},"config":{…},"deadline_ms":5000}
//! ← {"ok":true,"verb":"submit","job":1,"state":"queued","cached":false,"key":"…"}
//! → {"verb":"poll","job":1}
//! ← {"ok":true,"verb":"poll","job":1,"state":"done"}
//! → {"verb":"result","job":1}
//! ← {"ok":true,"verb":"result","job":1,"state":"done","cached":false,
//!    "objective":123.0,"solution":{…},"error":null}
//! → {"verb":"cancel","job":1}
//! ← {"ok":true,"verb":"cancel","job":1,"state":"cancelled"}
//! → {"verb":"stats"}
//! ← {"ok":true,"verb":"stats","jobs_submitted":…,…}
//! → {"verb":"shutdown"}
//! ← {"ok":true,"verb":"shutdown"}
//! ```
//!
//! ## v2 (session-oriented, negotiated, streaming)
//!
//! ```text
//! → {"verb":"hello","proto":2}
//! ← {"ok":true,"verb":"hello","proto":2,"capabilities":["submit_batch",…]}
//! → {"verb":"submit_batch","jobs":[{"design":{…},"board":{…}}, …]}
//! ← {"ok":true,"verb":"submit_batch","jobs":[{"job":1,"state":"queued",
//!    "cached":false,"key":"…"}, …]}
//! → {"verb":"watch","jobs":[1,2]}
//! ← {"ok":true,"verb":"watch","watching":[1,2],"unknown":[]}
//! ← {"event":"state","job":1,"state":"queued"}
//! ← {"event":"state","job":1,"state":"running"}
//! ← {"event":"progress","job":1,"phase":"global"}
//! ← {"event":"progress","job":1,"incumbent":123.0,"nodes":70}
//! ← {"event":"progress","job":1,"nodes":128}
//! ← {"event":"state","job":1,"state":"done","termination":"optimal"}
//! ```
//!
//! `hello` negotiates `min(client proto, 2)` and advertises the server's
//! capability tokens; it is optional — a connection that never says
//! hello is a v1 connection and sees only request/response frames.
//! `watch` first answers with a normal response, then emits one
//! synthetic `state` frame per watched job carrying its *current* state
//! (so a watcher never misses a transition that happened before the
//! watch), and from then on streams live transitions and bridged
//! [`gmm_api::ProgressObserver`] events. Terminal `state` frames carry
//! the full [`gmm_api::Termination`] token. Event delivery is bounded
//! per connection: progress frames are dropped oldest-first past the
//! queue cap (counted in `events_dropped` of `stats`) so a slow reader
//! can never stall a solver worker; state frames are never dropped.
//!
//! ## Reconnect and overload (v2)
//!
//! ```text
//! → {"verb":"attach","jobs":[1,2,9]}
//! ← {"ok":true,"verb":"attach","attached":[{"job":1,"state":"running"},
//!    {"job":2,"state":"done","termination":"optimal"}],"unknown":[9]}
//! ← {"event":"state","job":1,"state":"done","termination":"optimal"}
//! ← {"ok":false,"kind":"overloaded","error":"queue is at its max_inflight
//!    bound","inflight":64,"max_inflight":64,"retry_after_ms":120}
//! ← {"event":"stats","queue_depth":3,"jobs_submitted":10,…}
//! ```
//!
//! `attach` is the reconnect verb: a fresh connection re-subscribes the
//! job ids retained from earlier `SubmitReceipt`s. It is **idempotent**
//! (re-attaching an already-watched id neither duplicates frames nor
//! rewinds the stream) and answers each id's *current* state in the
//! response itself — terminal jobs answer terminally right there, so a
//! client that reconnects after the last transition still completes.
//! Non-terminal ids then stream exactly like `watch`.
//!
//! A daemon at its `--max-inflight` bound answers v2 submissions with
//! the structured `overloaded` rejection (`ok:false` plus
//! `kind:"overloaded"` and a `retry_after_ms` hint scaled by the
//! queue's recent drain latency) instead of queueing unboundedly; v1
//! connections see a plain error message. `watch`/`attach` with
//! `"stats":true` additionally subscribes the connection to `stats`
//! event frames — queue-depth/latency deltas pushed on terminal
//! transitions, droppable under backpressure like progress frames, so
//! dashboards don't poll.
//!
//! `deadline_ms` (optional) bounds that one job's solve wall-clock; a
//! job past its deadline answers `poll` with the structured `deadline`
//! state. `cancel` transitions a queued job to `cancelled` immediately
//! and fires a running job's cancellation token (the solver notices
//! within milliseconds); the response reports the state as of the call.
//!
//! ## Response order
//!
//! One connection's responses are written in the order its requests
//! arrived: the daemon and the router both read a connection's requests
//! one at a time and answer through one FIFO writer, with event frames
//! interleaved between responses but never reordering them. A client may
//! therefore pipeline — write many requests before reading the first
//! answer — and match the answers to its requests by position
//! ([`crate::Session::wait_all`] fetches a round's results that way).
//!
//! ## Payload bytes
//!
//! The `solution` field of a `result` (and a `peek` hit) embeds the cached
//! canonical JSON verbatim: [`result_frame`] and [`peek_frame`] copy the
//! cache entry's stored bytes into the frame without parsing them. The
//! router forwards a backend's `result` answer the same way:
//! [`relabel_result`] checks the payload's text and copies it into a frame
//! for the router's job id, building no tree. The deterministic writer
//! renders a parsed payload back to the same bytes, so the frame is
//! exactly what rendering the parsed tree would give, and a client that
//! re-renders the tree recovers the cache's bytes — which is what the
//! byte-identity acceptance check compares.
//!
//! Serialization is hand-written (rather than derived) because the derive
//! stand-in encodes enums as `{"Variant": …}` envelopes; a wire protocol
//! wants flat, verb-tagged objects that `nc`/scripting clients can speak.
//! Each type lists a frame's members once, and `write_json` walks that
//! list to write the line with no tree. Decoding mirrors it: each type's
//! `decode` reads its members once from a [`serde::Fields`] over the
//! streamed text (`read_json`, no tree). The `Value` tree methods are the
//! trait's own, served through that text. The tag (`verb`, `event`,
//! `ok`) comes first in every frame this crate writes, so a frame reads
//! in one pass; a tag anywhere else still decodes.
//!
//! ## Frame size
//!
//! A client line longer than [`MAX_FRAME_BYTES`] gets one error frame,
//! and then the connection closes ([`read_frame`]).

use std::io::{self, BufRead, Read};

use serde::{DeError, Deserialize, Fields, JsonReader, JsonWriter, Serialize, Value};

use gmm_api::Termination;
use gmm_arch::Board;
use gmm_design::Design;

use crate::queue::{JobConfig, JobState};

/// Highest protocol version this build speaks.
pub const PROTO_VERSION: u64 = 2;

/// Capability tokens the server advertises in the `hello` response.
pub const CAPABILITIES: &[&str] = &[
    "submit_batch",
    "watch",
    "progress",
    "cancel",
    "deadline_ms",
    "attach",
    "stats_events",
    "peek",
];

/// Longest frame, line ending excluded, that the daemon and the router
/// read from a client. A longer line gets one error frame, and then the
/// connection closes: the rest of the line is never read, so a client
/// cannot make either process buffer a line of unbounded length.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// What [`read_frame`] found.
#[derive(Debug, PartialEq)]
pub enum FrameRead<'a> {
    /// One line, its `\n` or `\r\n` stripped.
    Line(&'a str),
    /// More than [`MAX_FRAME_BYTES`] bytes with no newline among them.
    TooLong,
    Eof,
}

/// Read the next line of a JSON-lines stream into `buf`, which a
/// connection reuses for every frame, buffering at most
/// `MAX_FRAME_BYTES + 1` bytes of it. A line that is not UTF-8 is an
/// `InvalidData` error, as with [`BufRead::read_line`].
pub fn read_frame<'a, R: BufRead>(
    reader: &mut R,
    buf: &'a mut Vec<u8>,
) -> io::Result<FrameRead<'a>> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(FrameRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n > MAX_FRAME_BYTES {
        return Ok(FrameRead::TooLong);
    }
    std::str::from_utf8(buf)
        .map(FrameRead::Line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The error frame an over-long line gets before its connection closes.
pub fn frame_too_long() -> Response {
    Response::Error {
        message: format!("frame longer than {MAX_FRAME_BYTES} bytes; closing the connection"),
    }
}

/// One instance headed into `submit` or `submit_batch`: the body of the
/// v1 `submit` verb, reified so many of them can ride one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    pub design: Design,
    pub board: Board,
    pub config: JobConfig,
    /// Optional per-job solve deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl SubmitSpec {
    pub fn new(design: Design, board: Board, config: JobConfig) -> SubmitSpec {
        SubmitSpec {
            design,
            board,
            config,
            deadline_ms: None,
        }
    }

    pub fn deadline_ms(mut self, ms: u64) -> SubmitSpec {
        self.deadline_ms = Some(ms);
        self
    }
}

/// Per-job answer inside a `submit_batch` response (the same shape the
/// v1 `submit` response carries inline).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReceipt {
    pub job: u64,
    pub state: JobState,
    /// Whether the submission was satisfied instantly from the cache.
    pub cached: bool,
    pub key: String,
}

impl From<&crate::queue::JobTicket> for SubmitReceipt {
    fn from(ticket: &crate::queue::JobTicket) -> SubmitReceipt {
        SubmitReceipt {
            job: ticket.id,
            state: ticket.state,
            cached: ticket.cached,
            key: ticket.key.to_hex(),
        }
    }
}

/// Client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// v2 handshake: the highest protocol version the client speaks.
    Hello {
        proto: u64,
    },
    Submit {
        design: Design,
        board: Board,
        config: JobConfig,
        /// Optional per-job solve deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Many submissions in one round-trip (v2). With `watch: true` the
    /// connection is subscribed to each job *at submission time* —
    /// before any worker can claim it — so no state transition or
    /// progress frame can ever be missed between submit and a separate
    /// `watch` round-trip. `progress: false` subscribes to state
    /// transitions only (no solver progress frames on the wire).
    SubmitBatch {
        jobs: Vec<SubmitSpec>,
        watch: bool,
        progress: bool,
    },
    /// Subscribe this connection to server-push events for `jobs` (v2);
    /// `progress: false` streams state transitions only. `stats: true`
    /// additionally subscribes the connection to `stats` event frames.
    Watch {
        jobs: Vec<u64>,
        progress: bool,
        stats: bool,
    },
    /// Idempotent reconnect re-subscription (v2): answer each job id's
    /// current state snapshot in the response (terminal jobs answer
    /// terminally), then stream the non-terminal ones like `watch`.
    Attach {
        jobs: Vec<u64>,
        progress: bool,
        stats: bool,
    },
    /// Non-promoting cache probe by [`InstanceKey`] hex (v2): answers
    /// whether this daemon's in-memory solution cache holds the key,
    /// with the payload on a hit. Never solves, never queues, never
    /// touches LRU order or hit/miss counters — the cluster router uses
    /// it for peer cache-fill after a ring resize.
    ///
    /// [`InstanceKey`]: crate::hash::InstanceKey
    Peek {
        key: String,
    },
    Poll {
        job: u64,
    },
    Result {
        job: u64,
    },
    Cancel {
        job: u64,
    },
    Stats,
    Shutdown,
}

/// Server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `hello`: the negotiated protocol version plus the
    /// server's capability tokens.
    Welcome {
        proto: u64,
        capabilities: Vec<String>,
    },
    /// Answer to `submit_batch`: one receipt per job, submission order.
    BatchSubmitted {
        jobs: Vec<SubmitReceipt>,
    },
    /// Answer to `watch`: which ids are now streaming and which were
    /// never issued by this server.
    Watching {
        watching: Vec<u64>,
        unknown: Vec<u64>,
    },
    /// Answer to `attach`: one current-state snapshot per known id
    /// (terminal jobs answer terminally here — a reconnect after the
    /// last transition still completes), plus the ids this server never
    /// issued.
    Attached {
        attached: Vec<AttachSnapshot>,
        unknown: Vec<u64>,
    },
    /// Structured admission-control rejection (v2): the daemon is at its
    /// `max_inflight` bound. `ok:false` on the wire with
    /// `kind:"overloaded"`, so v1-minded readers still see an error
    /// while v2 clients get a machine-readable back-off hint.
    Overloaded {
        message: String,
        /// Jobs in flight at rejection time.
        inflight: u64,
        /// The configured admission bound that was hit.
        max_inflight: u64,
        /// Suggested back-off before resubmitting.
        retry_after_ms: u64,
    },
    /// Answer to `peek`: cache-hit flag plus the payload when hit.
    Peeked {
        hit: bool,
        objective: Option<f64>,
        /// Canonical solution tree on a hit, absent on a miss.
        solution: Option<Value>,
    },
    Submitted {
        job: u64,
        state: JobState,
        cached: bool,
        key: String,
    },
    PollState {
        job: u64,
        state: JobState,
    },
    ResultReady {
        job: u64,
        state: JobState,
        cached: bool,
        objective: Option<f64>,
        /// Raw canonical solution tree; `None` until the job is done.
        solution: Option<Value>,
        error: Option<String>,
    },
    /// Answer to `cancel`: the job's state as of the call (`cancelled`
    /// for a queued job, `running` for one whose token was just fired).
    CancelState {
        job: u64,
        state: JobState,
    },
    Stats(ServiceStats),
    Error {
        message: String,
    },
    Bye,
}

/// One job's current state inside an `attach` response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttachSnapshot {
    pub job: u64,
    pub state: JobState,
    /// Present when the job is terminal with a structured termination.
    pub termination: Option<Termination>,
}

/// Declares [`ServiceStats`] from a table with one row per field: its
/// doc text, its name and its kind. The kind sets the field's type and
/// how [`ServiceStats::merge`] folds a second node's value into it:
///
/// * `sum` — a `u64` counter or gauge that adds across nodes;
/// * `max` — a `u64` that keeps the worst node (a sum of percentiles or
///   uptimes would be meaningless, and an average would hide the hot
///   node);
/// * `versions` — the nested [`ProtoVersions`] pair, summed per version.
///
/// The derived serializer writes the fields in table order, so the
/// table order is the wire order of the `stats` verb.
macro_rules! service_stats {
    ($($(#[doc = $doc:literal])* $name:ident: $kind:ident,)*) => {
        /// Payload of the `stats` verb.
        ///
        /// The retention fields make bounded-memory behavior observable
        /// over the wire: `cache_entries` can never exceed a nonzero
        /// `cache_cap`, `cache_evictions`/`jobs_pruned` are monotonic
        /// counters of what retention removed, and `retain_jobs` echoes
        /// the configured per-shard terminal-record bound (0 = unbounded).
        #[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
        pub struct ServiceStats {
            $($(#[doc = $doc])* pub $name: stat_kind!(type $kind),)*
        }

        impl ServiceStats {
            /// Fold another node's stats into these, each field by its
            /// kind (how the router aggregates its backends).
            pub fn merge(&mut self, other: &ServiceStats) {
                $(stat_kind!(merge $kind, self.$name, other.$name);)*
            }

            /// Every field as `(name, value)` in wire order; the
            /// `proto_versions` pair reads as `proto_versions.v1` and
            /// `proto_versions.v2`.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(&stat_kind!(fields $kind, $name, self.$name)[..]),*]
                    .concat()
                    .into_iter()
            }
        }
    };
}

/// Per-kind expansions for [`service_stats!`].
macro_rules! stat_kind {
    (type versions) => {
        ProtoVersions
    };
    (type $kind:ident) => {
        u64
    };
    (merge sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (merge max, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
    (merge versions, $a:expr, $b:expr) => {{
        $a.v1 += $b.v1;
        $a.v2 += $b.v2;
    }};
    (fields versions, $name:ident, $v:expr) => {
        [
            (concat!(stringify!($name), ".v1"), $v.v1),
            (concat!(stringify!($name), ".v2"), $v.v2),
        ]
    };
    (fields $kind:ident, $name:ident, $v:expr) => {
        [(stringify!($name), $v)]
    };
}

service_stats! {
    /// Jobs accepted by `submit` or `submit_batch`.
    jobs_submitted: sum,
    /// Jobs that finished with a solution.
    jobs_completed: sum,
    /// Jobs whose solve failed.
    jobs_failed: sum,
    /// Jobs that terminated in the structured `cancelled` state.
    jobs_cancelled: sum,
    /// Jobs whose per-job/queue-wide deadline expired mid-solve.
    jobs_deadline: sum,
    /// Terminal job records removed by retention so far.
    jobs_pruned: sum,
    /// Configured per-record-shard terminal retention (0 = unbounded).
    retain_jobs: sum,
    /// Memory-tier cache hits.
    cache_hits: sum,
    /// Memory-tier cache misses.
    cache_misses: sum,
    /// Live memory-tier cache entries.
    cache_entries: sum,
    /// Memory-tier entries evicted by the LRU bound.
    cache_evictions: sum,
    /// Configured memory-tier capacity (0 = unbounded).
    cache_cap: sum,
    /// Worker threads.
    workers: sum,
    /// Milliseconds since the queue started.
    uptime_ms: max,
    /// Connections classified by negotiated protocol version — streaming
    /// adoption is observable per daemon.
    proto_versions: versions,
    /// Progress frames dropped by bounded per-connection event queues
    /// (slow watchers); state frames are never dropped.
    events_dropped: sum,
    /// Simplex pivots across all completed solves (cache hits add 0).
    lp_iterations: sum,
    /// Basis refactorizations across all completed solves.
    refactorizations: sum,
    /// Worst eta-file fill-in any single node LP reached.
    eta_nnz_peak: max,
    /// Live solution records in the on-disk cache tier (all `disk_*` and
    /// `hint_*` fields are zero on a daemon running without `--cache-dir`).
    disk_entries: sum,
    /// Memory-tier misses answered from the on-disk tier.
    disk_hits: sum,
    /// Memory-tier misses the on-disk tier could not answer either.
    disk_misses: sum,
    /// Persisted records dropped for checksum/framing damage (crash-torn
    /// tails are recovered silently and never counted here).
    disk_corrupt: sum,
    /// Live warm-start hint families in the persistent store.
    hint_entries: sum,
    /// Cold solves that found a family warm-start hint on disk.
    hint_hits: sum,
    /// Cold solves whose instance family had no persisted hint.
    hint_misses: sum,
    /// Global solves whose warm-start hint was accepted as the starting
    /// incumbent (a hit only *offers* a seed; this counts acceptances).
    incumbent_seeded: sum,
    /// Solves where the greedy heuristic found a feasible assignment
    /// (`heuristic` and `portfolio` solve modes).
    heuristic_solved: sum,
    /// Portfolio solves whose greedy assignment was accepted as the
    /// branch-and-bound starting incumbent.
    heuristic_seeded: sum,
    /// Heuristic/portfolio solves where the greedy found no fit (the ILP
    /// half may still have answered).
    heuristic_infeasible: sum,
    /// Jobs submitted but not yet terminal right now (queue-depth gauge;
    /// queued and running jobs both count).
    queue_depth: sum,
    /// Median submit→terminal wall latency over the queue's recent
    /// sample ring (cache hits included), milliseconds.
    latency_p50_ms: max,
    /// 95th-percentile submit→terminal latency over the recent ring, ms.
    latency_p95_ms: max,
}

/// Connection counters per negotiated protocol version. A connection
/// counts as v2 once it negotiates `hello` with `proto >= 2`, and as v1
/// when its first frame is any other verb.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ProtoVersions {
    pub v1: u64,
    pub v2: u64,
}

/// A server-push frame on a watched connection (v2). Tagged `"event"`
/// on the wire, so clients can split the stream from `"ok"` responses
/// with one field check.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// A job changed state. Terminal transitions carry the full
    /// [`Termination`]; the synthetic snapshot emitted at `watch` time
    /// carries whatever the job's current state is.
    State {
        job: u64,
        state: JobState,
        termination: Option<Termination>,
    },
    /// A bridged [`gmm_api::ProgressObserver`] notification from the
    /// worker solving this job.
    Progress { job: u64, frame: ProgressFrame },
    /// A queue-level stats delta (queue depth, terminal counters,
    /// latency gauges), pushed on terminal transitions to connections
    /// that opted in via `watch`/`attach` `{"stats":true}`. Droppable
    /// under backpressure like progress frames.
    Stats(StatsDelta),
}

impl JobEvent {
    /// The job this frame concerns; `None` for queue-level frames.
    pub fn job(&self) -> Option<u64> {
        match self {
            JobEvent::State { job, .. } | JobEvent::Progress { job, .. } => Some(*job),
            JobEvent::Stats(_) => None,
        }
    }

    /// Whether a bounded event queue may drop this frame under pressure
    /// (progress and stats frames are droppable, state frames never).
    pub fn droppable(&self) -> bool {
        matches!(self, JobEvent::Progress { .. } | JobEvent::Stats(_))
    }
}

/// The queue-level payload of a `stats` event frame: the gauges a
/// dashboard polls, pushed instead. A subset of the full `stats` verb —
/// cheap enough to assemble on every terminal transition.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StatsDelta {
    /// Jobs submitted but not yet terminal (queue-depth gauge).
    pub queue_depth: u64,
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    pub jobs_cancelled: u64,
    pub jobs_deadline: u64,
    /// Median submit→terminal latency over the recent sample ring, ms.
    pub latency_p50_ms: u64,
    /// 95th-percentile submit→terminal latency, ms.
    pub latency_p95_ms: u64,
    /// Droppable frames discarded by bounded outboxes so far.
    pub events_dropped: u64,
}

/// The owned, wire-shaped mirror of [`gmm_api::ProgressEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressFrame {
    Phase { phase: String },
    Incumbent { objective: f64, nodes: u64 },
    Nodes { nodes: u64 },
}

impl From<gmm_api::ProgressEvent> for ProgressFrame {
    fn from(ev: gmm_api::ProgressEvent) -> ProgressFrame {
        match ev {
            gmm_api::ProgressEvent::Phase(phase) => ProgressFrame::Phase {
                phase: phase.to_string(),
            },
            gmm_api::ProgressEvent::Incumbent { objective, nodes } => {
                ProgressFrame::Incumbent { objective, nodes }
            }
            gmm_api::ProgressEvent::Nodes(nodes) => ProgressFrame::Nodes { nodes },
        }
    }
}

/// Render a `result` response line (no trailing newline), copying
/// `solution` — canonical JSON text, or `None` for `null` — into it
/// verbatim.
///
/// The daemon passes a cache entry's stored bytes here instead of
/// parsing them. The bytes equal `serde_json::to_string(&Response::
/// ResultReady { .. })` of the same answer with the payload parsed
/// (pinned by a test).
pub fn result_frame(
    job: u64,
    state: JobState,
    cached: bool,
    objective: Option<f64>,
    solution: Option<&str>,
    error: Option<&str>,
) -> String {
    let mut line = JsonWriter::with_capacity(160 + solution.map_or(0, str::len));
    line.raw(r#"{"ok":true,"verb":"result","job":"#);
    line.u64(job);
    line.raw(r#","state":""#);
    line.raw(state.as_str());
    line.raw(r#"","cached":"#);
    line.bool(cached);
    line.raw(r#","objective":"#);
    objective.write_json(&mut line);
    line.raw(r#","solution":"#);
    line.raw(solution.unwrap_or("null"));
    line.raw(r#","error":"#);
    error.write_json(&mut line);
    line.raw("}");
    line.into_string()
}

/// Relabel a backend's answer to `{"verb":"result","job":asked}` as the
/// answer for job `job`, copying its `solution` into the new frame as
/// text: how the router forwards a `result` without building the
/// payload's tree.
///
/// The other members are read as [`Response`]'s decoder reads them, and
/// [`result_frame`] writes the frame, so its bytes equal decoding the
/// answer, changing its job id and rendering it (pinned by a test) for
/// any payload the daemon sends, which is canonical. The payload is
/// checked as it is copied, under the same [`MAX_DEPTH`](serde::MAX_DEPTH)
/// bound. A refusal (`ok:false`) is decoded and rendered as it is.
///
/// Returns the frame and the state the answer reports, `None` for a
/// refusal. An answer that does not decode, that answers another verb,
/// or that names a job other than `asked` is an error: the backend broke
/// the protocol.
pub fn relabel_result(
    line: &str,
    asked: u64,
    job: u64,
) -> Result<(Option<JobState>, String), DeError> {
    let mut r = JsonReader::new(line);
    let relabelled = r.fields(|m| {
        if !m.field::<bool>("ok")? {
            return Ok(None);
        }
        let verb: String = m.field("verb")?;
        if verb != "result" {
            return Err(DeError::new(format!("a `{verb}` answer to `result`")));
        }
        let answered: u64 = m.field("job")?;
        if answered != asked {
            return Err(DeError::new(format!(
                "the answer names job {answered}, not job {asked}"
            )));
        }
        let state: JobState = m.field("state")?;
        let frame = result_frame(
            job,
            state,
            m.field("cached")?,
            m.opt_field("objective")?,
            m.raw("solution")?,
            m.opt_field::<String>("error")?.as_deref(),
        );
        Ok(Some((state, frame)))
    })?;
    r.end()?;
    match relabelled {
        Some((state, frame)) => Ok((Some(state), frame)),
        None => Ok((
            None,
            render_response(&Response::read_json(&mut JsonReader::new(line))?),
        )),
    }
}

/// Render a `peek` response line (no trailing newline), copying
/// `solution` into it verbatim; the `peek` counterpart of
/// [`result_frame`], with the same guarantee.
pub fn peek_frame(hit: bool, objective: Option<f64>, solution: Option<&str>) -> String {
    let mut line = JsonWriter::with_capacity(96 + solution.map_or(0, str::len));
    line.raw(r#"{"ok":true,"verb":"peek","hit":"#);
    line.bool(hit);
    line.raw(r#","objective":"#);
    objective.write_json(&mut line);
    line.raw(r#","solution":"#);
    line.raw(solution.unwrap_or("null"));
    line.raw("}");
    line.into_string()
}

/// A response's wire line (no trailing newline), written straight from
/// the typed response: a `result` or `peek` answer's solution tree is
/// rendered in place, not cloned.
pub fn render_response(response: &Response) -> String {
    let mut line = JsonWriter::new();
    response.write_json(&mut line);
    line.into_string()
}

/// One line from a server: the answer to a request, or an event frame
/// pushed between answers.
#[derive(Debug)]
pub enum ServerFrame {
    // Boxed: a stats-bearing Response dwarfs an event frame, and event
    // frames are the hot path.
    Response(Box<Response>),
    Event(JobEvent),
}

impl ServerFrame {
    /// Decode one server line. The two families differ in their tag, and
    /// every in-tree writer puts it first (`event`, or `ok`), so the first
    /// member picks the decoder. A line that starts with any other member
    /// is an event frame if it has an `event` member anywhere among its
    /// top-level keys. Either way the line is then read once, with no tree.
    pub fn parse(line: &str) -> Result<ServerFrame, serde_json::Error> {
        if is_event_line(line) {
            serde_json::from_str(line).map(ServerFrame::Event)
        } else {
            serde_json::from_str(line).map(|r| ServerFrame::Response(Box::new(r)))
        }
    }
}

/// Whether `line` routes to the event decoder: its object's first key is
/// `event`, or its first key is not `ok` and a later top-level key is
/// `event`. Text that is malformed before that answer is known routes to
/// the response decoder, which then reports the error.
pub fn is_event_line(line: &str) -> bool {
    let mut r = JsonReader::new(line);
    if r.begin_object().is_err() {
        return false;
    }
    let mut first = true;
    loop {
        match r.next_key() {
            Ok(Some(key)) if key == "event" => return true,
            Ok(Some(key)) if first && key == "ok" => return false,
            Ok(Some(_)) if r.skip().is_ok() => first = false,
            _ => return false,
        }
    }
}

/// One wire object stated once, in member order, for `write_json` to
/// walk. `rest`, when set, splices the members of an object-valued
/// payload in after the listed ones (how the `stats` verb and event
/// flatten their counters).
#[derive(Default)]
struct Members<'a> {
    list: Vec<(&'static str, Member<'a>)>,
    rest: Option<&'a dyn Serialize>,
}

enum Member<'a> {
    Field(&'a dyn Serialize),
    /// A fixed token such as a verb or a termination name.
    Token(&'static str),
}

impl<'a> Members<'a> {
    fn field(&mut self, name: &'static str, value: &'a dyn Serialize) -> &mut Self {
        self.list.push((name, Member::Field(value)));
        self
    }

    fn token(&mut self, name: &'static str, token: &'static str) -> &mut Self {
        self.list.push((name, Member::Token(token)));
        self
    }

    /// The shared `design`/`board`/`config`/`deadline_ms` body of
    /// `submit` and each `submit_batch` entry.
    fn submit_body(
        &mut self,
        design: &'a Design,
        board: &'a Board,
        config: &'a JobConfig,
        deadline_ms: &'a Option<u64>,
    ) -> &mut Self {
        self.field("design", design)
            .field("board", board)
            .field("config", config);
        // Omitted (not null) when absent, so old servers and scripted
        // clients are byte-compatible.
        if let Some(ms) = deadline_ms {
            self.field("deadline_ms", ms);
        }
        self
    }

    /// A terminal state's termination token; omitted (not null) for
    /// non-terminal states.
    fn termination(&mut self, termination: Option<Termination>) -> &mut Self {
        if let Some(t) = termination {
            self.token("termination", t.as_str());
        }
        self
    }
}

impl Serialize for Members<'_> {
    fn write_json(&self, out: &mut JsonWriter) {
        out.raw("{");
        for (i, (name, member)) in self.list.iter().enumerate() {
            if i > 0 {
                out.raw(",");
            }
            out.str(name);
            out.raw(":");
            match member {
                Member::Field(v) => v.write_json(out),
                Member::Token(t) => out.str(t),
            }
        }
        if let Some(rest) = self.rest {
            out.members_of(rest, self.list.len());
        }
        out.raw("}");
    }
}

/// `Serialize` for a type with a `members()` list.
macro_rules! serialize_members {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut JsonWriter) {
                self.members().write_json(out);
            }
        }
    )*};
}

serialize_members!(
    SubmitSpec,
    AttachSnapshot,
    SubmitReceipt,
    Request,
    Response,
    JobEvent
);

/// `Deserialize` for a type with a `decode` that reads its members from
/// a [`Fields`].
macro_rules! deserialize_fields {
    ($($t:ty),*) => {$(
        impl ::serde::Deserialize for $t {
            fn read_json(r: &mut ::serde::JsonReader<'_>) -> Result<Self, ::serde::DeError> {
                r.fields(Self::decode)
            }
        }
    )*};
}
pub(crate) use deserialize_fields;

deserialize_fields!(
    SubmitSpec,
    AttachSnapshot,
    SubmitReceipt,
    Request,
    Response,
    JobEvent
);

fn termination_field(m: &mut Fields) -> Result<Option<Termination>, DeError> {
    match m.opt_field::<String>("termination")? {
        None => Ok(None),
        Some(token) => Termination::from_name(&token)
            .map(Some)
            .ok_or_else(|| DeError::new(format!("unknown termination token `{token}`"))),
    }
}

impl SubmitSpec {
    fn members(&self) -> Members<'_> {
        let mut m = Members::default();
        m.submit_body(&self.design, &self.board, &self.config, &self.deadline_ms);
        m
    }

    /// The shared body of `submit` and each `submit_batch` entry.
    fn decode(m: &mut Fields) -> Result<SubmitSpec, DeError> {
        Ok(SubmitSpec {
            design: m.field("design")?,
            board: m.field("board")?,
            // Optional so scripted clients can omit solver knobs.
            config: m.opt_field("config")?.unwrap_or_default(),
            deadline_ms: m.opt_field("deadline_ms")?,
        })
    }
}

impl AttachSnapshot {
    fn members(&self) -> Members<'_> {
        let mut m = Members::default();
        m.field("job", &self.job)
            .field("state", &self.state)
            .termination(self.termination);
        m
    }

    fn decode(m: &mut Fields) -> Result<AttachSnapshot, DeError> {
        Ok(AttachSnapshot {
            job: m.field("job")?,
            state: m.field("state")?,
            termination: termination_field(m)?,
        })
    }
}

impl SubmitReceipt {
    fn members(&self) -> Members<'_> {
        let mut m = Members::default();
        m.field("job", &self.job)
            .field("state", &self.state)
            .field("cached", &self.cached)
            .field("key", &self.key);
        m
    }

    fn decode(m: &mut Fields) -> Result<SubmitReceipt, DeError> {
        Ok(SubmitReceipt {
            job: m.field("job")?,
            state: m.field("state")?,
            cached: m.field("cached")?,
            key: m.field("key")?,
        })
    }
}

impl Request {
    fn members(&self) -> Members<'_> {
        let mut m = Members::default();
        match self {
            Request::Hello { proto } => {
                m.token("verb", "hello").field("proto", proto);
            }
            Request::Submit {
                design,
                board,
                config,
                deadline_ms,
            } => {
                m.token("verb", "submit")
                    .submit_body(design, board, config, deadline_ms);
            }
            Request::SubmitBatch {
                jobs,
                watch,
                progress,
            } => {
                m.token("verb", "submit_batch").field("jobs", jobs);
                // Both flags are omitted at their defaults (watch=false,
                // progress=true), keeping the minimal frame minimal.
                if *watch {
                    m.field("watch", &true);
                }
                if !progress {
                    m.field("progress", &false);
                }
            }
            Request::Watch {
                jobs,
                progress,
                stats,
            } => {
                m.token("verb", "watch").field("jobs", jobs);
                if !progress {
                    m.field("progress", &false);
                }
                if *stats {
                    m.field("stats", &true);
                }
            }
            Request::Attach {
                jobs,
                progress,
                stats,
            } => {
                m.token("verb", "attach").field("jobs", jobs);
                if !progress {
                    m.field("progress", &false);
                }
                if *stats {
                    m.field("stats", &true);
                }
            }
            Request::Peek { key } => {
                m.token("verb", "peek").field("key", key);
            }
            Request::Poll { job } => {
                m.token("verb", "poll").field("job", job);
            }
            Request::Result { job } => {
                m.token("verb", "result").field("job", job);
            }
            Request::Cancel { job } => {
                m.token("verb", "cancel").field("job", job);
            }
            Request::Stats => {
                m.token("verb", "stats");
            }
            Request::Shutdown => {
                m.token("verb", "shutdown");
            }
        }
        m
    }

    fn decode(m: &mut Fields) -> Result<Request, DeError> {
        let verb: String = m.field("verb")?;
        match verb.as_str() {
            "hello" => Ok(Request::Hello {
                proto: m.field("proto")?,
            }),
            "submit" => {
                let spec = SubmitSpec::decode(m)?;
                Ok(Request::Submit {
                    design: spec.design,
                    board: spec.board,
                    config: spec.config,
                    deadline_ms: spec.deadline_ms,
                })
            }
            "submit_batch" => Ok(Request::SubmitBatch {
                jobs: m.field("jobs")?,
                watch: m.opt_field("watch")?.unwrap_or(false),
                progress: m.opt_field("progress")?.unwrap_or(true),
            }),
            "watch" => Ok(Request::Watch {
                jobs: m.field("jobs")?,
                progress: m.opt_field("progress")?.unwrap_or(true),
                stats: m.opt_field("stats")?.unwrap_or(false),
            }),
            "attach" => Ok(Request::Attach {
                jobs: m.field("jobs")?,
                progress: m.opt_field("progress")?.unwrap_or(true),
                stats: m.opt_field("stats")?.unwrap_or(false),
            }),
            "peek" => Ok(Request::Peek {
                key: m.field("key")?,
            }),
            "poll" => Ok(Request::Poll {
                job: m.field("job")?,
            }),
            "result" => Ok(Request::Result {
                job: m.field("job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: m.field("job")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(DeError::new(format!("unknown verb `{other}`"))),
        }
    }
}

impl Response {
    fn members(&self) -> Members<'_> {
        let mut m = Members::default();
        match self {
            Response::Welcome {
                proto,
                capabilities,
            } => {
                m.field("ok", &true)
                    .token("verb", "hello")
                    .field("proto", proto)
                    .field("capabilities", capabilities);
            }
            Response::BatchSubmitted { jobs } => {
                m.field("ok", &true)
                    .token("verb", "submit_batch")
                    .field("jobs", jobs);
            }
            Response::Watching { watching, unknown } => {
                m.field("ok", &true)
                    .token("verb", "watch")
                    .field("watching", watching)
                    .field("unknown", unknown);
            }
            Response::Attached { attached, unknown } => {
                m.field("ok", &true)
                    .token("verb", "attach")
                    .field("attached", attached)
                    .field("unknown", unknown);
            }
            Response::Overloaded {
                message,
                inflight,
                max_inflight,
                retry_after_ms,
            } => {
                m.field("ok", &false)
                    .token("kind", "overloaded")
                    .field("error", message)
                    .field("inflight", inflight)
                    .field("max_inflight", max_inflight)
                    .field("retry_after_ms", retry_after_ms);
            }
            Response::Submitted {
                job,
                state,
                cached,
                key,
            } => {
                m.field("ok", &true)
                    .token("verb", "submit")
                    .field("job", job)
                    .field("state", state)
                    .field("cached", cached)
                    .field("key", key);
            }
            // The daemon writes cached payloads through `peek_frame` and
            // `result_frame`, which a test pins to these members.
            Response::Peeked {
                hit,
                objective,
                solution,
            } => {
                m.field("ok", &true)
                    .token("verb", "peek")
                    .field("hit", hit)
                    .field("objective", objective)
                    .field("solution", solution);
            }
            Response::PollState { job, state } => {
                m.field("ok", &true)
                    .token("verb", "poll")
                    .field("job", job)
                    .field("state", state);
            }
            Response::ResultReady {
                job,
                state,
                cached,
                objective,
                solution,
                error,
            } => {
                m.field("ok", &true)
                    .token("verb", "result")
                    .field("job", job)
                    .field("state", state)
                    .field("cached", cached)
                    .field("objective", objective)
                    .field("solution", solution)
                    .field("error", error);
            }
            Response::CancelState { job, state } => {
                m.field("ok", &true)
                    .token("verb", "cancel")
                    .field("job", job)
                    .field("state", state);
            }
            Response::Stats(stats) => {
                m.field("ok", &true).token("verb", "stats");
                m.rest = Some(stats);
            }
            Response::Error { message } => {
                m.field("ok", &false).field("error", message);
            }
            Response::Bye => {
                m.field("ok", &true).token("verb", "shutdown");
            }
        }
        m
    }

    fn decode(m: &mut Fields) -> Result<Response, DeError> {
        let ok: bool = m.field("ok")?;
        if !ok {
            // `kind` discriminates structured rejections from plain
            // errors; absent (old servers) everything is a plain error.
            if matches!(m.get("kind")?, Some(Value::Str(kind)) if kind == "overloaded") {
                return Ok(Response::Overloaded {
                    message: m.field("error")?,
                    inflight: m.field("inflight")?,
                    max_inflight: m.field("max_inflight")?,
                    retry_after_ms: m.field("retry_after_ms")?,
                });
            }
            return Ok(Response::Error {
                message: m.field("error")?,
            });
        }
        let verb: String = m.field("verb")?;
        match verb.as_str() {
            "hello" => Ok(Response::Welcome {
                proto: m.field("proto")?,
                capabilities: m.field("capabilities")?,
            }),
            "submit_batch" => Ok(Response::BatchSubmitted {
                jobs: m.field("jobs")?,
            }),
            "watch" => Ok(Response::Watching {
                watching: m.field("watching")?,
                unknown: m.field("unknown")?,
            }),
            "attach" => Ok(Response::Attached {
                attached: m.field("attached")?,
                unknown: m.field("unknown")?,
            }),
            "submit" => Ok(Response::Submitted {
                job: m.field("job")?,
                state: m.field("state")?,
                cached: m.field("cached")?,
                key: m.field("key")?,
            }),
            "peek" => Ok(Response::Peeked {
                hit: m.field("hit")?,
                objective: m.opt_field("objective")?,
                solution: m.opt_field("solution")?,
            }),
            "poll" => Ok(Response::PollState {
                job: m.field("job")?,
                state: m.field("state")?,
            }),
            "result" => Ok(Response::ResultReady {
                job: m.field("job")?,
                state: m.field("state")?,
                cached: m.field("cached")?,
                objective: m.opt_field("objective")?,
                solution: m.opt_field("solution")?,
                error: m.opt_field("error")?,
            }),
            "cancel" => Ok(Response::CancelState {
                job: m.field("job")?,
                state: m.field("state")?,
            }),
            "stats" => Ok(Response::Stats(m.whole()?)),
            "shutdown" => Ok(Response::Bye),
            other => Err(DeError::new(format!("unknown response verb `{other}`"))),
        }
    }
}

impl JobEvent {
    fn members(&self) -> Members<'_> {
        let mut m = Members::default();
        match self {
            JobEvent::State {
                job,
                state,
                termination,
            } => {
                m.token("event", "state")
                    .field("job", job)
                    .field("state", state)
                    .termination(*termination);
            }
            JobEvent::Progress { job, frame } => {
                m.token("event", "progress").field("job", job);
                match frame {
                    ProgressFrame::Phase { phase } => {
                        m.field("phase", phase);
                    }
                    ProgressFrame::Incumbent { objective, nodes } => {
                        m.field("incumbent", objective).field("nodes", nodes);
                    }
                    ProgressFrame::Nodes { nodes } => {
                        m.field("nodes", nodes);
                    }
                }
            }
            JobEvent::Stats(delta) => {
                m.token("event", "stats");
                m.rest = Some(delta);
            }
        }
        m
    }

    fn decode(m: &mut Fields) -> Result<JobEvent, DeError> {
        let event: String = m.field("event")?;
        if event == "stats" {
            return Ok(JobEvent::Stats(m.whole()?));
        }
        let job: u64 = m.field("job")?;
        match event.as_str() {
            "state" => Ok(JobEvent::State {
                job,
                state: m.field("state")?,
                termination: termination_field(m)?,
            }),
            "progress" => {
                let frame = if let Some(phase) = m.opt_field::<String>("phase")? {
                    ProgressFrame::Phase { phase }
                } else if let Some(objective) = m.opt_field::<f64>("incumbent")? {
                    ProgressFrame::Incumbent {
                        objective,
                        nodes: m.field("nodes")?,
                    }
                } else {
                    ProgressFrame::Nodes {
                        nodes: m.field("nodes")?,
                    }
                };
                Ok(JobEvent::Progress { job, frame })
            }
            other => Err(DeError::new(format!("unknown event kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_design::DesignBuilder;

    /// `write_json`'s text must survive the trip through its tree:
    /// parsing it (`to_value()`) and rendering the tree with the compact
    /// tree writer gives the same bytes.
    fn assert_streams_like_tree<T: Serialize + ?Sized>(value: &T) -> String {
        let mut streamed = JsonWriter::new();
        value.write_json(&mut streamed);
        let mut tree = JsonWriter::new();
        value.to_value().write_json(&mut tree);
        assert_eq!(streamed.as_str(), tree.as_str());
        streamed.into_string()
    }

    fn round_trip_request(req: Request) {
        assert_streams_like_tree(&req);
        let text = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&text).unwrap();
        assert_eq!(req, back, "request line: {text}");
    }

    fn round_trip_response(resp: Response) {
        assert_streams_like_tree(&resp);
        let text = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&text).unwrap();
        assert_eq!(resp, back, "response line: {text}");
    }

    fn tiny_instance() -> (Design, Board) {
        let mut b = DesignBuilder::new("p");
        b.segment("s", 64, 8).unwrap();
        (b.build().unwrap(), Board::prototyping("XCV300", 1).unwrap())
    }

    #[test]
    fn submit_round_trips() {
        let (design, board) = tiny_instance();
        round_trip_request(Request::Submit {
            design: design.clone(),
            board: board.clone(),
            config: JobConfig::default(),
            deadline_ms: None,
        });
        // With a per-job deadline attached.
        round_trip_request(Request::Submit {
            design,
            board,
            config: JobConfig::default(),
            deadline_ms: Some(2_500),
        });
        round_trip_response(Response::Submitted {
            job: 3,
            state: JobState::Queued,
            cached: false,
            key: "00ff".into(),
        });
    }

    #[test]
    fn submit_without_deadline_omits_the_field() {
        let (design, board) = tiny_instance();
        let line = serde_json::to_string(&Request::Submit {
            design,
            board,
            config: JobConfig::default(),
            deadline_ms: None,
        })
        .unwrap();
        assert!(
            !line.contains("deadline_ms"),
            "absent deadline must be omitted, not null: {line}"
        );
    }

    #[test]
    fn submit_config_is_optional_on_the_wire() {
        let (design, board) = tiny_instance();
        let design_json = serde_json::to_string(&design).unwrap();
        let board_json = serde_json::to_string(&board).unwrap();
        let line =
            format!("{{\"verb\":\"submit\",\"design\":{design_json},\"board\":{board_json}}}");
        match serde_json::from_str::<Request>(&line).unwrap() {
            Request::Submit { config, .. } => assert_eq!(config, JobConfig::default()),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn poll_round_trips() {
        round_trip_request(Request::Poll { job: 17 });
        round_trip_response(Response::PollState {
            job: 17,
            state: JobState::Running,
        });
    }

    #[test]
    fn result_round_trips() {
        round_trip_request(Request::Result { job: 8 });
        round_trip_response(Response::ResultReady {
            job: 8,
            state: JobState::Done,
            cached: true,
            objective: Some(42.5),
            solution: Some(Value::Object(vec![(
                "global".to_string(),
                Value::Array(vec![Value::UInt(0)]),
            )])),
            error: None,
        });
        // A not-yet-finished result carries no solution.
        round_trip_response(Response::ResultReady {
            job: 8,
            state: JobState::Queued,
            cached: false,
            objective: None,
            solution: None,
            error: None,
        });
    }

    #[test]
    fn stats_round_trips() {
        round_trip_request(Request::Stats);
        round_trip_response(Response::Stats(ServiceStats {
            jobs_submitted: 10,
            jobs_completed: 8,
            jobs_failed: 1,
            jobs_cancelled: 2,
            jobs_deadline: 1,
            jobs_pruned: 3,
            retain_jobs: 64,
            cache_hits: 5,
            cache_misses: 5,
            cache_entries: 4,
            cache_evictions: 1,
            cache_cap: 16,
            workers: 4,
            uptime_ms: 1234,
            proto_versions: ProtoVersions { v1: 3, v2: 2 },
            events_dropped: 7,
            lp_iterations: 4321,
            refactorizations: 99,
            eta_nnz_peak: 512,
            disk_entries: 6,
            disk_hits: 2,
            disk_misses: 4,
            disk_corrupt: 1,
            hint_entries: 3,
            hint_hits: 1,
            hint_misses: 2,
            incumbent_seeded: 1,
            heuristic_solved: 6,
            heuristic_seeded: 4,
            heuristic_infeasible: 1,
            queue_depth: 3,
            latency_p50_ms: 12,
            latency_p95_ms: 80,
        }));
    }

    /// The `stats` frame's exact bytes: field names, their order and
    /// values. Every field holds a distinct value, so a swapped pair or a
    /// renamed field changes the line.
    #[test]
    fn stats_frame_bytes_are_pinned() {
        let resp = Response::Stats(ServiceStats {
            jobs_submitted: 1,
            jobs_completed: 2,
            jobs_failed: 3,
            jobs_cancelled: 4,
            jobs_deadline: 5,
            jobs_pruned: 6,
            retain_jobs: 7,
            cache_hits: 8,
            cache_misses: 9,
            cache_entries: 10,
            cache_evictions: 11,
            cache_cap: 12,
            workers: 13,
            uptime_ms: 14,
            proto_versions: ProtoVersions { v1: 15, v2: 16 },
            events_dropped: 17,
            lp_iterations: 18,
            refactorizations: 19,
            eta_nnz_peak: 20,
            disk_entries: 21,
            disk_hits: 22,
            disk_misses: 23,
            disk_corrupt: 24,
            hint_entries: 25,
            hint_hits: 26,
            hint_misses: 27,
            incumbent_seeded: 28,
            heuristic_solved: 29,
            heuristic_seeded: 30,
            heuristic_infeasible: 31,
            queue_depth: 32,
            latency_p50_ms: 33,
            latency_p95_ms: 34,
        });
        let line = serde_json::to_string(&resp).unwrap();
        assert_eq!(
            line,
            concat!(
                r#"{"ok":true,"verb":"stats","jobs_submitted":1,"jobs_completed":2,"#,
                r#""jobs_failed":3,"jobs_cancelled":4,"jobs_deadline":5,"jobs_pruned":6,"#,
                r#""retain_jobs":7,"cache_hits":8,"cache_misses":9,"cache_entries":10,"#,
                r#""cache_evictions":11,"cache_cap":12,"workers":13,"uptime_ms":14,"#,
                r#""proto_versions":{"v1":15,"v2":16},"events_dropped":17,"#,
                r#""lp_iterations":18,"refactorizations":19,"eta_nnz_peak":20,"#,
                r#""disk_entries":21,"disk_hits":22,"disk_misses":23,"disk_corrupt":24,"#,
                r#""hint_entries":25,"hint_hits":26,"hint_misses":27,"incumbent_seeded":28,"#,
                r#""heuristic_solved":29,"heuristic_seeded":30,"heuristic_infeasible":31,"#,
                r#""queue_depth":32,"latency_p50_ms":33,"latency_p95_ms":34}"#,
            )
        );
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }

    /// `fields()` lists exactly the serialized fields, in wire order, with
    /// the nested `proto_versions` pair flattened to dotted names.
    #[test]
    fn stats_fields_follow_the_wire() {
        let stats = ServiceStats {
            jobs_submitted: 1,
            proto_versions: ProtoVersions { v1: 2, v2: 3 },
            latency_p95_ms: 4,
            ..ServiceStats::default()
        };
        let Value::Object(wire) = stats.to_value() else {
            panic!("stats serialize to an object");
        };
        let mut flat = Vec::new();
        for (name, value) in wire {
            match value {
                Value::Object(inner) => {
                    flat.extend(inner.into_iter().map(|(k, v)| (format!("{name}.{k}"), v)))
                }
                value => flat.push((name, value)),
            }
        }
        let fields: Vec<(String, Value)> = stats
            .fields()
            .map(|(name, value)| (name.to_string(), Value::UInt(value)))
            .collect();
        assert_eq!(fields, flat);
    }

    #[test]
    fn hello_round_trips_and_negotiates() {
        round_trip_request(Request::Hello { proto: 2 });
        round_trip_response(Response::Welcome {
            proto: PROTO_VERSION,
            capabilities: CAPABILITIES.iter().map(|c| c.to_string()).collect(),
        });
    }

    #[test]
    fn submit_batch_round_trips() {
        let (design, board) = tiny_instance();
        round_trip_request(Request::SubmitBatch {
            jobs: vec![
                SubmitSpec::new(design.clone(), board.clone(), JobConfig::default()),
                SubmitSpec::new(design.clone(), board.clone(), JobConfig::default())
                    .deadline_ms(2_500),
            ],
            watch: false,
            progress: true,
        });
        // Non-default flags ride the frame; defaults are omitted.
        let watched = Request::SubmitBatch {
            jobs: vec![SubmitSpec::new(design, board, JobConfig::default())],
            watch: true,
            progress: false,
        };
        let line = serde_json::to_string(&watched).unwrap();
        assert!(line.contains("\"watch\":true"));
        assert!(line.contains("\"progress\":false"));
        round_trip_request(watched);
        round_trip_response(Response::BatchSubmitted {
            jobs: vec![
                SubmitReceipt {
                    job: 1,
                    state: JobState::Queued,
                    cached: false,
                    key: "00ff".into(),
                },
                SubmitReceipt {
                    job: 2,
                    state: JobState::Done,
                    cached: true,
                    key: "00aa".into(),
                },
            ],
        });
    }

    #[test]
    fn watch_round_trips() {
        let full = Request::Watch {
            jobs: vec![1, 2, 9],
            progress: true,
            stats: false,
        };
        let line = serde_json::to_string(&full).unwrap();
        assert!(
            !line.contains("progress"),
            "default progress=true is omitted: {line}"
        );
        assert!(
            !line.contains("stats"),
            "default stats=false is omitted: {line}"
        );
        round_trip_request(full);
        round_trip_request(Request::Watch {
            jobs: vec![3],
            progress: false,
            stats: true,
        });
        round_trip_response(Response::Watching {
            watching: vec![1, 2],
            unknown: vec![9],
        });
    }

    #[test]
    fn attach_round_trips() {
        let minimal = Request::Attach {
            jobs: vec![1, 2, 9],
            progress: true,
            stats: false,
        };
        let line = serde_json::to_string(&minimal).unwrap();
        assert!(!line.contains("progress"), "defaults omitted: {line}");
        assert!(!line.contains("stats"), "defaults omitted: {line}");
        round_trip_request(minimal);
        round_trip_request(Request::Attach {
            jobs: vec![3],
            progress: false,
            stats: true,
        });
        // Terminal snapshots carry their termination; live ones omit it.
        let resp = Response::Attached {
            attached: vec![
                AttachSnapshot {
                    job: 1,
                    state: JobState::Running,
                    termination: None,
                },
                AttachSnapshot {
                    job: 2,
                    state: JobState::Done,
                    termination: Some(Termination::Optimal),
                },
                AttachSnapshot {
                    job: 4,
                    state: JobState::Expired,
                    termination: None,
                },
            ],
            unknown: vec![9],
        };
        let line = serde_json::to_string(&resp).unwrap();
        assert!(line.contains("\"termination\":\"optimal\""));
        round_trip_response(resp);
    }

    #[test]
    fn peek_round_trips() {
        round_trip_request(Request::Peek {
            key: "00000000000000000000000000001234".into(),
        });
        // A miss answers hit:false with a null payload.
        let miss = Response::Peeked {
            hit: false,
            objective: None,
            solution: None,
        };
        let line = serde_json::to_string(&miss).unwrap();
        assert!(line.contains("\"hit\":false"), "{line}");
        round_trip_response(miss);
        round_trip_response(Response::Peeked {
            hit: true,
            objective: Some(12.5),
            solution: Some(Value::Array(vec![Value::UInt(1), Value::UInt(2)])),
        });
    }

    #[test]
    fn overloaded_round_trips() {
        let resp = Response::Overloaded {
            message: "queue is at its max_inflight bound".into(),
            inflight: 64,
            max_inflight: 64,
            retry_after_ms: 120,
        };
        let line = serde_json::to_string(&resp).unwrap();
        assert!(
            line.contains("\"ok\":false"),
            "a rejection is not ok: {line}"
        );
        assert!(line.contains("\"kind\":\"overloaded\""));
        assert!(line.contains("\"retry_after_ms\":120"));
        round_trip_response(resp);
        // A plain error (no kind) still parses as a plain error.
        round_trip_response(Response::Error {
            message: "unknown job 99".into(),
        });
    }

    fn round_trip_event(ev: JobEvent) -> String {
        assert_streams_like_tree(&ev);
        let text = serde_json::to_string(&ev).unwrap();
        let back: JobEvent = serde_json::from_str(&text).unwrap();
        assert_eq!(ev, back, "event line: {text}");
        text
    }

    #[test]
    fn state_events_round_trip() {
        let line = round_trip_event(JobEvent::State {
            job: 4,
            state: JobState::Running,
            termination: None,
        });
        assert!(
            !line.contains("termination"),
            "non-terminal frames omit termination: {line}"
        );
        assert!(line.contains("\"event\":\"state\""));
        let line = round_trip_event(JobEvent::State {
            job: 4,
            state: JobState::Done,
            termination: Some(Termination::Optimal),
        });
        assert!(line.contains("\"termination\":\"optimal\""));
        round_trip_event(JobEvent::State {
            job: 5,
            state: JobState::Deadline,
            termination: Some(Termination::DeadlineExceeded),
        });
    }

    #[test]
    fn progress_events_round_trip() {
        for frame in [
            ProgressFrame::Phase {
                phase: "global".into(),
            },
            ProgressFrame::Incumbent {
                objective: 42.5,
                nodes: 70,
            },
            ProgressFrame::Nodes { nodes: 128 },
        ] {
            let ev = JobEvent::Progress { job: 9, frame };
            assert!(ev.droppable(), "progress frames are droppable");
            assert_eq!(ev.job(), Some(9));
            round_trip_event(ev);
        }
        assert!(
            !JobEvent::State {
                job: 1,
                state: JobState::Done,
                termination: Some(Termination::Optimal)
            }
            .droppable(),
            "state frames are never droppable"
        );
    }

    #[test]
    fn stats_events_round_trip() {
        let ev = JobEvent::Stats(StatsDelta {
            queue_depth: 3,
            jobs_submitted: 10,
            jobs_completed: 6,
            jobs_failed: 1,
            jobs_cancelled: 0,
            jobs_deadline: 0,
            latency_p50_ms: 12,
            latency_p95_ms: 80,
            events_dropped: 2,
        });
        assert!(ev.droppable(), "stats frames drop under backpressure");
        assert_eq!(ev.job(), None, "stats frames are queue-level");
        let line = round_trip_event(ev);
        assert!(line.contains("\"event\":\"stats\""));
        assert!(line.contains("\"queue_depth\":3"));
    }

    #[test]
    fn expired_states_round_trip() {
        // A pruned job id answers with the structured `expired` state on
        // both the poll and result verbs — same shape as live answers, so
        // clients need no special casing beyond reading the state.
        round_trip_response(Response::PollState {
            job: 3,
            state: JobState::Expired,
        });
        round_trip_response(Response::ResultReady {
            job: 3,
            state: JobState::Expired,
            cached: false,
            objective: None,
            solution: None,
            error: Some("job 3 expired: its terminal record was pruned".into()),
        });
        // The wire token parses back.
        assert_eq!(JobState::from_name("expired"), Some(JobState::Expired));
        assert!(JobState::Expired.is_terminal());
    }

    #[test]
    fn cancel_round_trips() {
        round_trip_request(Request::Cancel { job: 12 });
        // Queued job: cancelled outright.
        round_trip_response(Response::CancelState {
            job: 12,
            state: JobState::Cancelled,
        });
        // Running job: token fired, state still running as of the call.
        round_trip_response(Response::CancelState {
            job: 12,
            state: JobState::Running,
        });
        // Both new terminal states parse from their wire tokens.
        assert_eq!(JobState::from_name("cancelled"), Some(JobState::Cancelled));
        assert_eq!(JobState::from_name("deadline"), Some(JobState::Deadline));
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Deadline.is_terminal());
    }

    #[test]
    fn deadline_states_round_trip() {
        round_trip_response(Response::PollState {
            job: 5,
            state: JobState::Deadline,
        });
        // A deadline'd job may still ship its best-effort solution.
        round_trip_response(Response::ResultReady {
            job: 5,
            state: JobState::Deadline,
            cached: false,
            objective: Some(99.0),
            solution: Some(Value::Object(vec![(
                "global".to_string(),
                Value::Array(vec![Value::UInt(1)]),
            )])),
            error: Some("job 5 deadline exceeded".into()),
        });
    }

    #[test]
    fn shutdown_round_trips() {
        round_trip_request(Request::Shutdown);
        round_trip_response(Response::Bye);
    }

    /// Canonical payload texts the frame renderers must copy verbatim:
    /// hand trees covering every value kind and string escape, and real
    /// solve payloads.
    fn payload_fixtures() -> Vec<String> {
        let hand = Value::Object(vec![
            (
                "floats".into(),
                Value::Array(
                    [
                        0.1 + 0.2,
                        -0.0,
                        3.0,
                        -2.5e-9,
                        1e16,
                        1e20,
                        f64::INFINITY,
                        f64::NAN,
                    ]
                    .into_iter()
                    .map(Value::Float)
                    .collect(),
                ),
            ),
            (
                "ints".into(),
                Value::Array(vec![Value::Int(-7), Value::UInt(u64::MAX)]),
            ),
            (
                "text".into(),
                Value::Str("quote \" slash \\ nl \n tab \t ctl \u{1} é".into()),
            ),
            (
                "flags".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("empty".into(), Value::Object(vec![])),
        ]);
        let mut fixtures = vec![
            "[]".to_string(),
            "{}".to_string(),
            serde_json::to_string(&hand).unwrap(),
        ];
        let queue = crate::JobQueue::new(crate::QueueOptions {
            workers: 1,
            ..Default::default()
        });
        for seed in 0..3 {
            let design = gmm_workloads::random_design(&gmm_workloads::RandomDesignSpec {
                segments: 4 + seed as usize,
                seed,
                ..gmm_workloads::RandomDesignSpec::default()
            });
            let board = Board::prototyping("XCV300", 1).unwrap();
            let ticket = queue.submit(design, board, JobConfig::default());
            let out = queue
                .wait(ticket.id, std::time::Duration::from_secs(120))
                .unwrap();
            fixtures.push(out.solution_json.expect("solved").solution_json.clone());
        }
        queue.shutdown();
        fixtures
    }

    #[test]
    fn verbatim_frames_match_the_rendered_trees() {
        let mut payloads: Vec<Option<String>> = vec![None];
        payloads.extend(payload_fixtures().into_iter().map(Some));
        let objectives = [None, Some(42.0), Some(-0.5), Some(123456.789), Some(1e-7)];
        let errors = [None, Some("job 3 \"failed\"\nbadly")];
        let states = [
            JobState::Done,
            JobState::Queued,
            JobState::Deadline,
            JobState::Expired,
        ];
        for payload in &payloads {
            let tree = payload
                .as_ref()
                .map(|p| serde_json::from_str::<Value>(p).unwrap());
            for objective in objectives {
                for error in errors {
                    for state in states {
                        for cached in [false, true] {
                            let resp = Response::ResultReady {
                                job: 77,
                                state,
                                cached,
                                objective,
                                solution: tree.clone(),
                                error: error.map(str::to_string),
                            };
                            let expected = serde_json::to_string(&resp).unwrap();
                            let frame = result_frame(
                                77,
                                state,
                                cached,
                                objective,
                                payload.as_deref(),
                                error,
                            );
                            assert_eq!(frame, expected);
                            assert_eq!(render_response(&resp), expected);
                        }
                    }
                }
                let resp = Response::Peeked {
                    hit: payload.is_some(),
                    objective,
                    solution: tree.clone(),
                };
                let expected = serde_json::to_string(&resp).unwrap();
                assert_eq!(
                    peek_frame(payload.is_some(), objective, payload.as_deref()),
                    expected
                );
                assert_eq!(render_response(&resp), expected);
            }
        }
    }

    /// The router's old `result` forward: decode the whole answer, put the
    /// router's id in, render the tree.
    fn relabelled_through_the_tree(line: &str, job: u64) -> String {
        match serde_json::from_str::<Response>(line).unwrap() {
            Response::ResultReady {
                state,
                cached,
                objective,
                solution,
                error,
                ..
            } => render_response(&Response::ResultReady {
                job,
                state,
                cached,
                objective,
                solution,
                error,
            }),
            other => render_response(&other),
        }
    }

    #[test]
    fn relabelled_results_match_the_tree_path_byte_for_byte() {
        let mut payloads: Vec<Option<String>> = vec![None];
        payloads.extend(payload_fixtures().into_iter().map(Some));
        let mut answers = Vec::new();
        for payload in &payloads {
            for objective in [None, Some(42.0), Some(-0.5), Some(1e-7)] {
                for error in [None, Some("job 3 \"failed\"\nbadly\t\u{1} é")] {
                    for state in [JobState::Done, JobState::Running, JobState::Failed] {
                        for cached in [false, true] {
                            answers.push(result_frame(
                                12,
                                state,
                                cached,
                                objective,
                                payload.as_deref(),
                                error,
                            ));
                        }
                    }
                }
            }
        }
        // Members out of order, repeated or unknown, and refusals, which
        // forward as decoded.
        answers.extend(
            [
                r#"{"ok":true,"verb":"result","job":12,"state":"done","cached":true,"objective":null,"solution":null,"error":null}"#,
                r#"{"ok":true,"verb":"result","job":12,"state":"done","cached":false}"#,
                r#"{ "ok": true, "verb": "result", "job": 12, "state": "done", "cached": true, "solution": [1,2] }"#,
                r#"{"solution":{"a":[1,2]},"error":"x","job":12,"verb":"result","ok":true,"cached":true,"state":"done","objective":3.5}"#,
                r#"{"ok":true,"verb":"result","job":12,"state":"done","cached":true,"solution":[true],"solution":"later","extra":{"k":1}}"#,
                r#"{"ok":false,"error":"unknown job 12"}"#,
                r#"{"ok":false,"kind":"overloaded","error":"busy","inflight":1,"max_inflight":1,"retry_after_ms":5}"#,
            ]
            .map(str::to_string),
        );
        for line in &answers {
            let (state, frame) = relabel_result(line, 12, 4242).unwrap();
            assert_eq!(frame, relabelled_through_the_tree(line, 4242), "{line}");
            let decoded = serde_json::from_str::<Response>(line).unwrap();
            match decoded {
                Response::ResultReady { state: s, .. } => assert_eq!(state, Some(s)),
                _ => assert_eq!(state, None),
            }
        }
    }

    #[test]
    fn a_result_for_another_job_or_verb_is_refused() {
        let frame = result_frame(12, JobState::Done, true, Some(1.0), Some("{}"), None);
        assert!(relabel_result(&frame, 12, 99).is_ok());
        let err = relabel_result(&frame, 13, 99).unwrap_err();
        assert!(err.0.contains("names job 12, not job 13"), "{err:?}");
        let poll = render_response(&Response::PollState {
            job: 12,
            state: JobState::Done,
        });
        assert!(relabel_result(&poll, 12, 99).is_err());
        let deep = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        for bad in [
            frame[..frame.len() - 3].to_string(),
            format!("{frame} x"),
            result_frame(12, JobState::Done, true, None, Some("{\"a\":[1,"), None),
            result_frame(
                12,
                JobState::Done,
                true,
                None,
                Some(&deep(serde::MAX_DEPTH)),
                None,
            ),
        ] {
            assert!(relabel_result(&bad, 12, 99).is_err(), "{bad}");
        }
        let deepest = result_frame(
            12,
            JobState::Done,
            true,
            None,
            Some(&deep(serde::MAX_DEPTH - 1)),
            None,
        );
        assert!(relabel_result(&deepest, 12, 99).is_ok());
    }

    /// Every shape the derive supports, for the writer parity test.
    #[derive(Serialize)]
    enum Shapes {
        Unit,
        One(f64),
        Two(i64, String),
        Named { a: Option<u32>, b: Vec<u8> },
        EmptyNamed {},
    }

    #[derive(Serialize)]
    struct Newtype(f64);

    #[derive(Serialize)]
    struct Pair(u64, Option<String>);

    #[derive(Serialize)]
    struct Empty {}

    #[test]
    fn write_json_matches_the_tree_render() {
        // Wire and cached types, from the fixtures above.
        let (design, board) = tiny_instance();
        let (t3_design, t3_board, _) = gmm_workloads::table3_instance(2);
        assert_streams_like_tree(&design);
        assert_streams_like_tree(&board);
        assert_streams_like_tree(&t3_design);
        assert_streams_like_tree(&t3_board);
        for mode in [
            gmm_api::SolveMode::Ilp,
            gmm_api::SolveMode::Heuristic,
            gmm_api::SolveMode::Portfolio,
        ] {
            assert_streams_like_tree(&JobConfig {
                solve_mode: mode,
                overlap_aware: true,
                ..JobConfig::default()
            });
        }
        for payload in payload_fixtures() {
            let tree: Value = serde_json::from_str(&payload).unwrap();
            assert_eq!(assert_streams_like_tree(&tree), payload);
            if let Ok(solution) = serde_json::from_str::<crate::JobSolution>(&payload) {
                assert_eq!(assert_streams_like_tree(&solution), payload);
            }
        }
        assert_streams_like_tree(&ServiceStats::default());
        assert_streams_like_tree(&Response::Stats(ServiceStats::default()));
        assert_streams_like_tree(&JobEvent::Stats(StatsDelta::default()));
        assert_streams_like_tree(&Request::SubmitBatch {
            jobs: vec![],
            watch: false,
            progress: true,
        });

        // Edge values.
        let floats = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::INFINITY,
            f64::NEG_INFINITY,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            1e15,
            -1e15,
            1e15 + 2.0,
            2.0f64.powi(60),
            0.1 + 0.2,
            -2.5e-9,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        for f in floats {
            assert_streams_like_tree(&f);
            assert_streams_like_tree(&(f as f32));
        }
        assert_streams_like_tree(&floats.to_vec());
        for n in [0, 1, 9, 10, u64::MAX] {
            assert_streams_like_tree(&n);
        }
        for n in [0, -1, -10, i64::MIN, i64::MAX] {
            assert_streams_like_tree(&n);
        }
        assert_streams_like_tree(&(u8::MAX, i8::MIN, usize::MAX, isize::MIN));

        // Strings that need escaping, and ones that do not.
        for text in [
            "",
            "plain",
            "quote \" slash \\ nl \n cr \r tab \t",
            "ctl \u{1} \u{1f} del \u{7f}",
            "non-ASCII: é ∑ 🦀",
        ] {
            assert_streams_like_tree(text);
            assert_streams_like_tree(&text.to_string());
            assert_streams_like_tree(&Value::Str(text.into()));
        }
        assert_streams_like_tree(&'"');
        assert_streams_like_tree(&'é');

        // Empty containers, None, maps, and every derived shape.
        assert_streams_like_tree(&Vec::<u8>::new());
        assert_streams_like_tree(&None::<u8>);
        assert_streams_like_tree(&Some(Some(3u8)));
        assert_streams_like_tree(&[[1u8; 2]; 0]);
        assert_streams_like_tree(&std::collections::BTreeSet::from([3u8, 1]));
        assert_streams_like_tree(&std::collections::BTreeMap::from([
            ("b \"key\"".to_string(), -0.0),
            ("a".to_string(), 1.5),
        ]));
        assert_streams_like_tree(&std::collections::BTreeMap::<String, u8>::new());
        assert_streams_like_tree(&Value::Object(vec![]));
        assert_streams_like_tree(&Value::Array(vec![]));
        assert_streams_like_tree(&vec![
            Shapes::Unit,
            Shapes::One(-0.0),
            Shapes::Two(i64::MIN, "t\"wo".into()),
            Shapes::Named { a: None, b: vec![] },
            Shapes::Named {
                a: Some(7),
                b: vec![1, 2],
            },
            Shapes::EmptyNamed {},
        ]);
        assert_streams_like_tree(&Newtype(f64::NAN));
        assert_streams_like_tree(&Pair(u64::MAX, None));
        assert_streams_like_tree(&Pair(0, Some(String::new())));
        assert_streams_like_tree(&Empty {});
    }

    /// A server line's family is its first member's tag; a line whose
    /// tag is not first is an event frame if any top-level key is `event`.
    #[test]
    fn server_frames_route_on_their_tag() {
        let event = JobEvent::State {
            job: 4,
            state: JobState::Running,
            termination: None,
        };
        let response = Response::PollState {
            job: 4,
            state: JobState::Running,
        };
        let line =
            |pairs: &[(String, Value)]| serde_json::to_string(&Value::Object(pairs.to_vec()));
        let Value::Object(mut event_pairs) = event.to_value() else {
            panic!("an event is an object");
        };
        let Value::Object(mut response_pairs) = response.to_value() else {
            panic!("a response is an object");
        };
        let route =
            |pairs: &[(String, Value)]| match ServerFrame::parse(&line(pairs).unwrap()).unwrap() {
                ServerFrame::Event(ev) => Err(ev),
                ServerFrame::Response(resp) => Ok(*resp),
            };
        assert_eq!(route(&event_pairs), Err(event.clone()));
        event_pairs.rotate_left(1);
        assert_eq!(route(&event_pairs), Err(event.clone()));
        // `ok` first wins over a later `event`; anywhere else, `event` wins.
        response_pairs.push(("event".into(), Value::Str("state".into())));
        assert_eq!(route(&response_pairs), Ok(response));
        response_pairs.rotate_left(1);
        assert_eq!(route(&response_pairs), Err(event));
    }

    /// The tree methods go through the text, so they meet the reader's
    /// depth cap: a frame as deep as the reader accepts must still give
    /// its tree and decode from it.
    #[test]
    fn tree_methods_accept_the_deepest_frame() {
        let frame = |levels: usize| {
            let solution = "[".repeat(levels) + &"]".repeat(levels);
            result_frame(7, JobState::Done, true, Some(1.5), Some(&solution), None)
        };
        // The frame's own object is one level.
        let deepest = frame(serde::MAX_DEPTH - 1);
        assert!(serde_json::from_str::<Response>(&frame(serde::MAX_DEPTH)).is_err());
        let resp: Response = serde_json::from_str(&deepest).unwrap();
        let tree = resp.to_value();
        let back = Response::from_value(&tree).unwrap();
        let mut rendered = JsonWriter::new();
        tree.write_json(&mut rendered);
        assert_eq!(rendered.as_str(), deepest);
        assert_eq!(render_response(&back), deepest);
    }

    #[test]
    fn errors_and_unknown_verbs() {
        round_trip_response(Response::Error {
            message: "unknown job 99".into(),
        });
        let err = serde_json::from_str::<Request>("{\"verb\":\"frobnicate\"}");
        assert!(err.is_err());
    }
}
