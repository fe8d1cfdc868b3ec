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
//! deterministic writer renders a parsed payload back to the same bytes,
//! so the frame is exactly what rendering the parsed tree would give, and
//! a client that re-renders the tree recovers the cache's bytes — which is
//! what the byte-identity acceptance check compares.
//!
//! Serialization is hand-written (rather than derived) because the derive
//! stand-in encodes enums as `{"Variant": …}` envelopes; a wire protocol
//! wants flat, verb-tagged objects that `nc`/scripting clients can speak.

use serde::{DeError, Deserialize, Serialize, Value};

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
/// This function owns the wire layout of the `result` frame: the daemon
/// passes a cache entry's stored bytes, and every producer holding a
/// solution tree renders it and comes through here via
/// [`render_response`]. The bytes equal
/// `serde_json::to_string(&Response::ResultReady { .. })` of the same
/// answer with the payload parsed (pinned by a test).
pub fn result_frame(
    job: u64,
    state: JobState,
    cached: bool,
    objective: Option<f64>,
    solution: Option<&str>,
    error: Option<&str>,
) -> String {
    let mut line = String::with_capacity(160 + solution.map_or(0, str::len));
    line.push_str(r#"{"ok":true,"verb":"result","job":"#);
    line.push_str(&job.to_string());
    line.push_str(r#","state":""#);
    line.push_str(state.as_str());
    line.push_str(r#"","cached":"#);
    line.push_str(if cached { "true" } else { "false" });
    line.push_str(r#","objective":"#);
    push_json(&mut line, &objective);
    line.push_str(r#","solution":"#);
    line.push_str(solution.unwrap_or("null"));
    line.push_str(r#","error":"#);
    push_json(&mut line, &error);
    line.push('}');
    line
}

/// Render a `peek` response line (no trailing newline), copying
/// `solution` into it verbatim; the `peek` counterpart of
/// [`result_frame`], with the same guarantee.
pub fn peek_frame(hit: bool, objective: Option<f64>, solution: Option<&str>) -> String {
    let mut line = String::with_capacity(96 + solution.map_or(0, str::len));
    line.push_str(r#"{"ok":true,"verb":"peek","hit":"#);
    line.push_str(if hit { "true" } else { "false" });
    line.push_str(r#","objective":"#);
    push_json(&mut line, &objective);
    line.push_str(r#","solution":"#);
    line.push_str(solution.unwrap_or("null"));
    line.push('}');
    line
}

/// A response's wire line (no trailing newline). `result` and `peek`
/// answers render their solution tree and go through [`result_frame`] and
/// [`peek_frame`]; every other response renders through `Serialize`.
pub fn render_response(response: &Response) -> String {
    match response {
        Response::ResultReady {
            job,
            state,
            cached,
            objective,
            solution,
            error,
        } => {
            let tree = solution.as_ref().map(render);
            result_frame(*job, *state, *cached, *objective, tree.as_deref(), error.as_deref())
        }
        Response::Peeked {
            hit,
            objective,
            solution,
        } => {
            let tree = solution.as_ref().map(render);
            peek_frame(*hit, *objective, tree.as_deref())
        }
        other => render(other),
    }
}

// Rendering cannot fail with the in-tree serde_json; were it ever to,
// a response degrades to a structured error frame, and a field of one
// to `null`, rather than panicking on the request path.
fn render<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| {
        r#"{"ok":false,"error":"internal: response failed to render"}"#.to_string()
    })
}

fn push_json<T: Serialize + ?Sized>(line: &mut String, value: &T) {
    match serde_json::to_string(value) {
        Ok(text) => line.push_str(&text),
        Err(_) => line.push_str("null"),
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    T::from_value(v.get(name).ok_or_else(|| DeError::missing(name))?)
}

fn opt_field<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, DeError> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(inner) => T::from_value(inner).map(Some),
    }
}

/// The shared `design`/`board`/`config`/`deadline_ms` body of `submit`
/// and each `submit_batch` entry.
fn submit_body(
    pairs: &mut Vec<(&str, Value)>,
    design: &Design,
    board: &Board,
    config: &JobConfig,
    deadline_ms: Option<u64>,
) {
    pairs.push(("design", design.to_value()));
    pairs.push(("board", board.to_value()));
    pairs.push(("config", config.to_value()));
    // Omitted (not null) when absent, so old servers and scripted
    // clients are byte-compatible.
    if let Some(ms) = deadline_ms {
        pairs.push(("deadline_ms", Value::UInt(ms)));
    }
}

fn submit_body_from_value(v: &Value) -> Result<SubmitSpec, DeError> {
    Ok(SubmitSpec {
        design: field(v, "design")?,
        board: field(v, "board")?,
        // Optional so scripted clients can omit solver knobs.
        config: opt_field(v, "config")?.unwrap_or_default(),
        deadline_ms: opt_field(v, "deadline_ms")?,
    })
}

impl Serialize for SubmitSpec {
    fn to_value(&self) -> Value {
        let mut pairs = Vec::new();
        submit_body(&mut pairs, &self.design, &self.board, &self.config, self.deadline_ms);
        obj(pairs)
    }
}

impl Deserialize for SubmitSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        submit_body_from_value(v)
    }
}

impl Serialize for AttachSnapshot {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("job", Value::UInt(self.job)),
            ("state", self.state.to_value()),
        ];
        // Omitted (not null) for non-terminal snapshots, matching the
        // state event frame's shape.
        if let Some(t) = self.termination {
            pairs.push(("termination", Value::Str(t.as_str().into())));
        }
        obj(pairs)
    }
}

impl Deserialize for AttachSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let termination = match opt_field::<String>(v, "termination")? {
            None => None,
            Some(token) => Some(Termination::from_name(&token).ok_or_else(|| {
                DeError::new(format!("unknown termination token `{token}`"))
            })?),
        };
        Ok(AttachSnapshot {
            job: field(v, "job")?,
            state: field(v, "state")?,
            termination,
        })
    }
}

impl Serialize for SubmitReceipt {
    fn to_value(&self) -> Value {
        obj(vec![
            ("job", Value::UInt(self.job)),
            ("state", self.state.to_value()),
            ("cached", Value::Bool(self.cached)),
            ("key", Value::Str(self.key.clone())),
        ])
    }
}

impl Deserialize for SubmitReceipt {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(SubmitReceipt {
            job: field(v, "job")?,
            state: field(v, "state")?,
            cached: field(v, "cached")?,
            key: field(v, "key")?,
        })
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Hello { proto } => obj(vec![
                ("verb", Value::Str("hello".into())),
                ("proto", Value::UInt(*proto)),
            ]),
            Request::Submit {
                design,
                board,
                config,
                deadline_ms,
            } => {
                let mut pairs = vec![("verb", Value::Str("submit".into()))];
                submit_body(&mut pairs, design, board, config, *deadline_ms);
                obj(pairs)
            }
            Request::SubmitBatch {
                jobs,
                watch,
                progress,
            } => {
                let mut pairs = vec![
                    ("verb", Value::Str("submit_batch".into())),
                    (
                        "jobs",
                        Value::Array(jobs.iter().map(Serialize::to_value).collect()),
                    ),
                ];
                // Both flags are omitted at their defaults (watch=false,
                // progress=true), keeping the minimal frame minimal.
                if *watch {
                    pairs.push(("watch", Value::Bool(true)));
                }
                if !progress {
                    pairs.push(("progress", Value::Bool(false)));
                }
                obj(pairs)
            }
            Request::Watch {
                jobs,
                progress,
                stats,
            } => {
                let mut pairs = vec![
                    ("verb", Value::Str("watch".into())),
                    (
                        "jobs",
                        Value::Array(jobs.iter().map(|j| Value::UInt(*j)).collect()),
                    ),
                ];
                if !progress {
                    pairs.push(("progress", Value::Bool(false)));
                }
                if *stats {
                    pairs.push(("stats", Value::Bool(true)));
                }
                obj(pairs)
            }
            Request::Attach {
                jobs,
                progress,
                stats,
            } => {
                let mut pairs = vec![
                    ("verb", Value::Str("attach".into())),
                    (
                        "jobs",
                        Value::Array(jobs.iter().map(|j| Value::UInt(*j)).collect()),
                    ),
                ];
                if !progress {
                    pairs.push(("progress", Value::Bool(false)));
                }
                if *stats {
                    pairs.push(("stats", Value::Bool(true)));
                }
                obj(pairs)
            }
            Request::Peek { key } => obj(vec![
                ("verb", Value::Str("peek".into())),
                ("key", Value::Str(key.clone())),
            ]),
            Request::Poll { job } => obj(vec![
                ("verb", Value::Str("poll".into())),
                ("job", Value::UInt(*job)),
            ]),
            Request::Result { job } => obj(vec![
                ("verb", Value::Str("result".into())),
                ("job", Value::UInt(*job)),
            ]),
            Request::Cancel { job } => obj(vec![
                ("verb", Value::Str("cancel".into())),
                ("job", Value::UInt(*job)),
            ]),
            Request::Stats => obj(vec![("verb", Value::Str("stats".into()))]),
            Request::Shutdown => obj(vec![("verb", Value::Str("shutdown".into()))]),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let verb: String = field(v, "verb")?;
        match verb.as_str() {
            "hello" => Ok(Request::Hello {
                proto: field(v, "proto")?,
            }),
            "submit" => {
                let spec = submit_body_from_value(v)?;
                Ok(Request::Submit {
                    design: spec.design,
                    board: spec.board,
                    config: spec.config,
                    deadline_ms: spec.deadline_ms,
                })
            }
            "submit_batch" => Ok(Request::SubmitBatch {
                jobs: field(v, "jobs")?,
                watch: opt_field(v, "watch")?.unwrap_or(false),
                progress: opt_field(v, "progress")?.unwrap_or(true),
            }),
            "watch" => Ok(Request::Watch {
                jobs: field(v, "jobs")?,
                progress: opt_field(v, "progress")?.unwrap_or(true),
                stats: opt_field(v, "stats")?.unwrap_or(false),
            }),
            "attach" => Ok(Request::Attach {
                jobs: field(v, "jobs")?,
                progress: opt_field(v, "progress")?.unwrap_or(true),
                stats: opt_field(v, "stats")?.unwrap_or(false),
            }),
            "peek" => Ok(Request::Peek {
                key: field(v, "key")?,
            }),
            "poll" => Ok(Request::Poll {
                job: field(v, "job")?,
            }),
            "result" => Ok(Request::Result {
                job: field(v, "job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: field(v, "job")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(DeError::new(format!("unknown verb `{other}`"))),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Welcome {
                proto,
                capabilities,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("hello".into())),
                ("proto", Value::UInt(*proto)),
                (
                    "capabilities",
                    Value::Array(
                        capabilities
                            .iter()
                            .map(|c| Value::Str(c.clone()))
                            .collect(),
                    ),
                ),
            ]),
            Response::BatchSubmitted { jobs } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("submit_batch".into())),
                (
                    "jobs",
                    Value::Array(jobs.iter().map(Serialize::to_value).collect()),
                ),
            ]),
            Response::Watching { watching, unknown } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("watch".into())),
                (
                    "watching",
                    Value::Array(watching.iter().map(|j| Value::UInt(*j)).collect()),
                ),
                (
                    "unknown",
                    Value::Array(unknown.iter().map(|j| Value::UInt(*j)).collect()),
                ),
            ]),
            Response::Attached { attached, unknown } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("attach".into())),
                (
                    "attached",
                    Value::Array(attached.iter().map(Serialize::to_value).collect()),
                ),
                (
                    "unknown",
                    Value::Array(unknown.iter().map(|j| Value::UInt(*j)).collect()),
                ),
            ]),
            Response::Overloaded {
                message,
                inflight,
                max_inflight,
                retry_after_ms,
            } => obj(vec![
                ("ok", Value::Bool(false)),
                ("kind", Value::Str("overloaded".into())),
                ("error", Value::Str(message.clone())),
                ("inflight", Value::UInt(*inflight)),
                ("max_inflight", Value::UInt(*max_inflight)),
                ("retry_after_ms", Value::UInt(*retry_after_ms)),
            ]),
            Response::Submitted {
                job,
                state,
                cached,
                key,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("submit".into())),
                ("job", Value::UInt(*job)),
                ("state", state.to_value()),
                ("cached", Value::Bool(*cached)),
                ("key", Value::Str(key.clone())),
            ]),
            // The trees of the `peek` and `result` frames; the wire lines
            // come from `peek_frame` and `result_frame`, which a test
            // pins to these trees' rendering.
            Response::Peeked {
                hit,
                objective,
                solution,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("peek".into())),
                ("hit", Value::Bool(*hit)),
                ("objective", objective.to_value()),
                ("solution", solution.clone().unwrap_or(Value::Null)),
            ]),
            Response::PollState { job, state } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("poll".into())),
                ("job", Value::UInt(*job)),
                ("state", state.to_value()),
            ]),
            Response::ResultReady {
                job,
                state,
                cached,
                objective,
                solution,
                error,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("result".into())),
                ("job", Value::UInt(*job)),
                ("state", state.to_value()),
                ("cached", Value::Bool(*cached)),
                ("objective", objective.to_value()),
                ("solution", solution.clone().unwrap_or(Value::Null)),
                ("error", error.to_value()),
            ]),
            Response::CancelState { job, state } => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("cancel".into())),
                ("job", Value::UInt(*job)),
                ("state", state.to_value()),
            ]),
            Response::Stats(stats) => {
                let mut pairs = vec![
                    ("ok".to_string(), Value::Bool(true)),
                    ("verb".to_string(), Value::Str("stats".into())),
                ];
                if let Value::Object(fields) = stats.to_value() {
                    pairs.extend(fields);
                }
                Value::Object(pairs)
            }
            Response::Error { message } => obj(vec![
                ("ok", Value::Bool(false)),
                ("error", Value::Str(message.clone())),
            ]),
            Response::Bye => obj(vec![
                ("ok", Value::Bool(true)),
                ("verb", Value::Str("shutdown".into())),
            ]),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let ok: bool = field(v, "ok")?;
        if !ok {
            // `kind` discriminates structured rejections from plain
            // errors; absent (old servers) everything is a plain error.
            if let Some("overloaded") = v.get("kind").and_then(Value::as_str) {
                return Ok(Response::Overloaded {
                    message: field(v, "error")?,
                    inflight: field(v, "inflight")?,
                    max_inflight: field(v, "max_inflight")?,
                    retry_after_ms: field(v, "retry_after_ms")?,
                });
            }
            return Ok(Response::Error {
                message: field(v, "error")?,
            });
        }
        let verb: String = field(v, "verb")?;
        match verb.as_str() {
            "hello" => Ok(Response::Welcome {
                proto: field(v, "proto")?,
                capabilities: field(v, "capabilities")?,
            }),
            "submit_batch" => Ok(Response::BatchSubmitted {
                jobs: field(v, "jobs")?,
            }),
            "watch" => Ok(Response::Watching {
                watching: field(v, "watching")?,
                unknown: field(v, "unknown")?,
            }),
            "attach" => Ok(Response::Attached {
                attached: field(v, "attached")?,
                unknown: field(v, "unknown")?,
            }),
            "submit" => Ok(Response::Submitted {
                job: field(v, "job")?,
                state: field(v, "state")?,
                cached: field(v, "cached")?,
                key: field(v, "key")?,
            }),
            "peek" => Ok(Response::Peeked {
                hit: field(v, "hit")?,
                objective: opt_field(v, "objective")?,
                solution: match v.get("solution") {
                    None | Some(Value::Null) => None,
                    Some(tree) => Some(tree.clone()),
                },
            }),
            "poll" => Ok(Response::PollState {
                job: field(v, "job")?,
                state: field(v, "state")?,
            }),
            "result" => Ok(Response::ResultReady {
                job: field(v, "job")?,
                state: field(v, "state")?,
                cached: field(v, "cached")?,
                objective: opt_field(v, "objective")?,
                solution: match v.get("solution") {
                    None | Some(Value::Null) => None,
                    Some(tree) => Some(tree.clone()),
                },
                error: opt_field(v, "error")?,
            }),
            "cancel" => Ok(Response::CancelState {
                job: field(v, "job")?,
                state: field(v, "state")?,
            }),
            "stats" => Ok(Response::Stats(ServiceStats::from_value(v)?)),
            "shutdown" => Ok(Response::Bye),
            other => Err(DeError::new(format!("unknown response verb `{other}`"))),
        }
    }
}

impl Serialize for JobEvent {
    fn to_value(&self) -> Value {
        match self {
            JobEvent::State {
                job,
                state,
                termination,
            } => {
                let mut pairs = vec![
                    ("event", Value::Str("state".into())),
                    ("job", Value::UInt(*job)),
                    ("state", state.to_value()),
                ];
                // Omitted (not null) for non-terminal frames.
                if let Some(t) = termination {
                    pairs.push(("termination", Value::Str(t.as_str().into())));
                }
                obj(pairs)
            }
            JobEvent::Progress { job, frame } => {
                let mut pairs = vec![
                    ("event", Value::Str("progress".into())),
                    ("job", Value::UInt(*job)),
                ];
                match frame {
                    ProgressFrame::Phase { phase } => {
                        pairs.push(("phase", Value::Str(phase.clone())));
                    }
                    ProgressFrame::Incumbent { objective, nodes } => {
                        pairs.push(("incumbent", Value::Float(*objective)));
                        pairs.push(("nodes", Value::UInt(*nodes)));
                    }
                    ProgressFrame::Nodes { nodes } => {
                        pairs.push(("nodes", Value::UInt(*nodes)));
                    }
                }
                obj(pairs)
            }
            JobEvent::Stats(delta) => {
                let mut pairs = vec![("event".to_string(), Value::Str("stats".into()))];
                if let Value::Object(fields) = delta.to_value() {
                    pairs.extend(fields);
                }
                Value::Object(pairs)
            }
        }
    }
}

impl Deserialize for JobEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let event: String = field(v, "event")?;
        if event == "stats" {
            return Ok(JobEvent::Stats(StatsDelta::from_value(v)?));
        }
        let job: u64 = field(v, "job")?;
        match event.as_str() {
            "state" => {
                let termination = match opt_field::<String>(v, "termination")? {
                    None => None,
                    Some(token) => Some(Termination::from_name(&token).ok_or_else(|| {
                        DeError::new(format!("unknown termination token `{token}`"))
                    })?),
                };
                Ok(JobEvent::State {
                    job,
                    state: field(v, "state")?,
                    termination,
                })
            }
            "progress" => {
                let frame = if let Some(phase) = opt_field::<String>(v, "phase")? {
                    ProgressFrame::Phase { phase }
                } else if let Some(objective) = opt_field::<f64>(v, "incumbent")? {
                    ProgressFrame::Incumbent {
                        objective,
                        nodes: field(v, "nodes")?,
                    }
                } else {
                    ProgressFrame::Nodes {
                        nodes: field(v, "nodes")?,
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

    fn round_trip_request(req: Request) {
        let text = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&text).unwrap();
        assert_eq!(req, back, "request line: {text}");
    }

    fn round_trip_response(resp: Response) {
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
        let line = format!("{{\"verb\":\"submit\",\"design\":{design_json},\"board\":{board_json}}}");
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
        assert!(line.contains("\"ok\":false"), "a rejection is not ok: {line}");
        assert!(line.contains("\"kind\":\"overloaded\""));
        assert!(line.contains("\"retry_after_ms\":120"));
        round_trip_response(resp);
        // A plain error (no kind) still parses as a plain error.
        round_trip_response(Response::Error {
            message: "unknown job 99".into(),
        });
    }

    fn round_trip_event(ev: JobEvent) -> String {
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
            ProgressFrame::Phase { phase: "global".into() },
            ProgressFrame::Incumbent { objective: 42.5, nodes: 70 },
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
            ("floats".into(), Value::Array(
                [0.1 + 0.2, -0.0, 3.0, -2.5e-9, 1e16, 1e20, f64::INFINITY, f64::NAN]
                    .into_iter()
                    .map(Value::Float)
                    .collect(),
            )),
            ("ints".into(), Value::Array(vec![Value::Int(-7), Value::UInt(u64::MAX)])),
            ("text".into(), Value::Str("quote \" slash \\ nl \n tab \t ctl \u{1} é".into())),
            ("flags".into(), Value::Array(vec![Value::Bool(true), Value::Null])),
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
        let states = [JobState::Done, JobState::Queued, JobState::Deadline, JobState::Expired];
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

    #[test]
    fn errors_and_unknown_verbs() {
        round_trip_response(Response::Error {
            message: "unknown job 99".into(),
        });
        let err = serde_json::from_str::<Request>("{\"verb\":\"frobnicate\"}");
        assert!(err.is_err());
    }
}
