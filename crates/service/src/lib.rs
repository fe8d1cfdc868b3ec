//! # gmm-service — the batch mapping service
//!
//! Everything below the `mapsrv` daemon: the CLI solves one instance per
//! process, this crate solves *streams* of instances and is the first
//! layer at which throughput (requests per second), cache hit rates, and
//! cross-instance concurrency are measurable quantities.
//!
//! Three layers, composable independently:
//!
//! * [`queue`] — a FIFO [`JobQueue`]: instances wait in one
//!   submission-ordered list, and idle workers park on its condvar and
//!   pop the front;
//! * [`cache`] — a content-addressed [`SolutionCache`]: solved instances
//!   are keyed by a canonical [`hash`] of the `(design, board, config)`
//!   triple, so repeated or textually-different-but-identical submissions
//!   return the original solve's **byte-identical** payload instantly;
//!   capacity-bounded with sharded LRU eviction, so a long-running daemon
//!   holds steady-state memory (see `QueueOptions::cache_cap` and
//!   `QueueOptions::retain_jobs` for the cache and job-record bounds —
//!   a pruned job id answers with the structured `expired` state);
//! * [`server`] / [`client`] / [`protocol`] / [`events`] — the `mapsrv`
//!   daemon: a JSON-lines TCP protocol. The v1 dialect (`submit` with
//!   optional per-job `deadline_ms`, `poll`, `result`, `cancel`,
//!   `stats`, `shutdown`) stays available for scripting clients;
//!   protocol v2 adds a `hello` handshake, many-jobs-per-round-trip
//!   `submit_batch`, and server-push `watch` streams carrying state
//!   transitions (with full [`gmm_api::Termination`]s) and bridged
//!   solver progress, delivered through bounded drop-oldest [`Outbox`]
//!   queues so slow readers never stall workers. [`Session`] is the
//!   multiplexed client for both the wire and in-process use.
//!
//! Workers execute every job through the `gmm_api::MapRequest` facade —
//! the same entry point the CLI and library callers use — so per-job
//! deadlines and cancellation behave identically everywhere: a job past
//! its deadline terminates in the structured `deadline` state (carrying
//! the best-effort solution when one existed, uncached), and the
//! `cancel` verb transitions queued jobs to `cancelled` immediately and
//! running jobs within milliseconds (the solver polls its token per
//! branch-and-bound node and every few simplex pivots).
//!
//! ## In-process batch solving
//!
//! ```
//! use gmm_service::{JobConfig, JobQueue, JobState, QueueOptions};
//! use gmm_workloads::{random_design, RandomDesignSpec};
//!
//! let mut opts = QueueOptions::default();
//! opts.workers = 2;
//! let queue = JobQueue::new(opts);
//! let design = random_design(&RandomDesignSpec { segments: 4, ..RandomDesignSpec::default() });
//! let board = gmm_arch::Board::prototyping("XCV300", 1).unwrap();
//!
//! let ticket = queue.submit(design.clone(), board.clone(), JobConfig::default());
//! let outcome = queue.wait(ticket.id, std::time::Duration::from_secs(60)).unwrap();
//! assert_eq!(outcome.state, JobState::Done);
//!
//! // Resubmitting the identical instance hits the content-addressed cache.
//! let again = queue.submit(design, board, JobConfig::default());
//! assert!(again.cached);
//! ```
//!
//! ## Over TCP
//!
//! A protocol-v2 [`Session`] multiplexes many in-flight jobs over one
//! connection and waits by consuming the server-push event stream:
//!
//! ```no_run
//! use std::sync::Arc;
//! use gmm_service::{JobConfig, JobQueue, MapServer, QueueOptions, Session, SubmitSpec};
//!
//! let queue = Arc::new(JobQueue::new(QueueOptions::default()));
//! let server = MapServer::start("127.0.0.1:7171", queue).unwrap();
//! let mut session = Session::connect(server.local_addr()).unwrap();
//! # let (design, board) = unimplemented!();
//! let receipts = session
//!     .submit_batch(vec![SubmitSpec::new(design, board, JobConfig::default())])
//!     .unwrap();
//! let outcomes = session.wait_all(std::time::Duration::from_secs(60)).unwrap();
//! assert_eq!(outcomes.len(), receipts.len());
//! ```
//!
//! The one-verb-at-a-time v1 [`MapClient`] remains for scripting-shaped
//! uses and as the reference v1 binding.

pub mod cache;
pub mod client;
pub mod events;
pub mod hash;
pub mod persist;
pub mod protocol;
pub mod queue;
pub mod ranks;
pub mod server;

pub use cache::{CacheEntry, CacheStats, SolutionCache};
pub use client::{ClientError, MapClient, Proto, RemoteOutcome, Session};
pub use events::{Frame, Outbox, Popped};
pub use hash::{canonical_json, family_key, instance_key, normalize_floats, InstanceKey};
pub use persist::{PersistStats, PersistStore, WarmHint};
pub use protocol::{
    AttachSnapshot, JobEvent, ProgressFrame, ProtoVersions, Request, Response, ServiceStats,
    StatsDelta, SubmitReceipt, SubmitSpec, CAPABILITIES, PROTO_VERSION,
};
pub use queue::{
    JobConfig, JobOutcome, JobQueue, JobSolution, JobState, JobTicket, LpBasis, LpPricing,
    Overloaded, QueueOptions, QueueStats, RECORD_SHARDS,
};
pub use server::MapServer;
