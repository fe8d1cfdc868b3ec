//! Batch job queue with bounded retention.
//!
//! Jobs (one mapping instance each) wait in one submission-ordered list
//! guarded by a mutex; idle workers park on a condvar and pop the front,
//! so jobs start in the order they were submitted. The daemon runs a
//! handful of workers, each busy for a full MIP solve per job, so one
//! list head is never the contended resource.
//!
//! Every submission is first looked up in the content-addressed
//! [`SolutionCache`]; a hit completes the job instantly with the original
//! solve's byte-identical payload.
//!
//! With [`QueueOptions::persist_dir`] set, a second, on-disk tier backs
//! the memory cache (see [`crate::persist::PersistStore`]): optimal
//! solves and LRU-evicted entries land in an append-only segment log, a
//! memory miss falls through to disk (promoting the hit back into the
//! memory tier), and each optimal solve also refreshes a warm-start hint
//! keyed by the coarser [`crate::hash::family_key`] — a cold solve of a
//! *near-miss* instance (same design/config, different board constants)
//! seeds branch-and-bound with the family's last assignment. The disk
//! tier's and the hints' counters ride [`JobQueue::stats`] as its `disk_*`
//! and `hint_*` fields.
//!
//! ## Deadlines and cancellation
//!
//! Workers execute jobs through the `gmm_api::MapRequest` facade. Each
//! job owns a [`CancelToken`] (created at submit): [`JobQueue::cancel`]
//! fires it, transitioning queued jobs to the structured
//! [`JobState::Cancelled`] immediately and running jobs when the solver
//! notices (it polls per branch-and-bound node and every few simplex
//! pivots). [`JobQueue::submit_with_deadline`] attaches a per-job
//! wall-clock budget (min-combined with [`QueueOptions::job_time_limit`]);
//! a job past it terminates in [`JobState::Deadline`], keeping its
//! best-effort solution when one was found in time. Only *optimal*
//! terminations enter the cache — a deadline-shaped incumbent is not a
//! deterministic function of the instance.
//!
//! ## Retention
//!
//! A long-running daemon must hold **bounded** memory, so both stores the
//! queue owns are capped:
//!
//! * the solution cache evicts least-recently-used entries past
//!   [`QueueOptions::cache_cap`] (see [`SolutionCache`]);
//! * job records are sharded by id across [`RECORD_SHARDS`] shards, and
//!   each shard retains at most [`QueueOptions::retain_jobs`] **terminal**
//!   records (and, optionally, none older than
//!   [`QueueOptions::retain_age`]). Queued/running records are never
//!   pruned. Looking up a pruned id yields the structured
//!   [`JobState::Expired`] answer — never a hang, panic, or a
//!   misleading "unknown job".
//!
//! Waiting is signal-driven, not polled: terminal transitions notify a
//! per-record-shard condvar ([`JobQueue::wait`]) and a queue-wide condvar
//! ([`JobQueue::wait_idle`]); idle workers park on the job list's condvar,
//! which every submission signals, so nobody burns a core spinning.
//!
//! ## Events
//!
//! The queue is also an event source (the engine under the protocol-v2
//! `watch` stream): subscribers register a bounded [`Outbox`] via
//! [`JobQueue::subscribe`], and the workers fan out every state
//! transition (queued→running→terminal, terminal frames carrying the
//! full [`Termination`]) plus bridged `gmm_api::ProgressObserver`
//! notifications. Delivery never blocks a worker: outboxes drop their
//! oldest progress frames past their cap (counted in
//! [`ServiceStats::events_dropped`]); state frames are never dropped.
//! [`JobQueue::submit_watched`] registers a job with an outbox *between*
//! record publication and queue push, so a watcher misses nothing even
//! for microsecond-scale solves.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};

use gmm_api::{ForwardProgress, MapRequest, SolveMode, Termination};
use gmm_arch::Board;
use gmm_core::pipeline::DetailedStrategy;
use gmm_core::{DetailedIlpOptions, DetailedMapping, GlobalAssignment, SolverBackend};
use gmm_design::Design;
use gmm_ilp::branch::MipOptions;
use gmm_ilp::control::CancelToken;
use gmm_ilp::{BasisBackend, PricingRule};

use crate::cache::{CacheEntry, SolutionCache};
use crate::events::Outbox;
use crate::hash::{canonical_json, family_key, instance_key, InstanceKey};
use crate::persist::{PersistStore, WarmHint};
use crate::protocol::{JobEvent, ProtoVersions, ServiceStats, StatsDelta};

/// Simplex basis backend selection, serializable for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpBasis {
    /// Sparse LU + eta updates (default).
    Lu,
    /// Explicit dense inverse (reference backend).
    Dense,
}

impl From<LpBasis> for BasisBackend {
    fn from(b: LpBasis) -> BasisBackend {
        match b {
            LpBasis::Lu => BasisBackend::SparseLu,
            LpBasis::Dense => BasisBackend::Dense,
        }
    }
}

impl From<BasisBackend> for LpBasis {
    fn from(b: BasisBackend) -> LpBasis {
        match b {
            BasisBackend::SparseLu => LpBasis::Lu,
            BasisBackend::Dense => LpBasis::Dense,
        }
    }
}

/// Simplex pricing-rule selection, serializable for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpPricing {
    /// Full scan, most-negative reduced cost (default).
    Dantzig,
    /// Rotating candidate-list partial pricing.
    Partial,
    /// Devex reference-weight pricing.
    Devex,
}

impl From<LpPricing> for PricingRule {
    fn from(p: LpPricing) -> PricingRule {
        match p {
            LpPricing::Dantzig => PricingRule::Dantzig,
            LpPricing::Partial => PricingRule::Partial,
            LpPricing::Devex => PricingRule::Devex,
        }
    }
}

impl From<PricingRule> for LpPricing {
    fn from(p: PricingRule) -> LpPricing {
        match p {
            PricingRule::Dantzig => LpPricing::Dantzig,
            PricingRule::Partial => LpPricing::Partial,
            PricingRule::Devex => LpPricing::Devex,
        }
    }
}

/// Per-job solver configuration. Part of the cache key: two submissions
/// with different configs are different instances.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobConfig {
    pub lp_basis: LpBasis,
    /// Simplex entering-column pricing rule. Part of the cache key like
    /// every other config field, so per-rule resubmissions land on
    /// separate cache slots.
    pub lp_pricing: LpPricing,
    /// Lifetime-based capacity modification (paper §4.1.2 note).
    pub overlap_aware: bool,
    /// Use the §4.2 ILP detailed mapper instead of the constructive packer.
    pub detailed_ilp: bool,
    /// Which engine(s) run the solve (ILP, greedy heuristic, or the
    /// portfolio). Part of the cache key like every other field, so
    /// per-mode resubmissions land on separate cache slots.
    pub solve_mode: SolveMode,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            lp_basis: LpBasis::Lu,
            lp_pricing: LpPricing::Dantzig,
            overlap_aware: false,
            detailed_ilp: false,
            solve_mode: SolveMode::Ilp,
        }
    }
}

/// Decoded by hand so `solve_mode` (added after protocol v2 shipped)
/// stays optional on the wire: configs serialized by older clients
/// deserialize to the default `ilp` mode instead of erroring.
impl JobConfig {
    fn decode(m: &mut serde::Fields) -> Result<JobConfig, serde::DeError> {
        Ok(JobConfig {
            lp_basis: m.field("lp_basis")?,
            lp_pricing: m.field("lp_pricing")?,
            overlap_aware: m.field("overlap_aware")?,
            detailed_ilp: m.field("detailed_ilp")?,
            solve_mode: m.get("solve_mode")?.unwrap_or(SolveMode::Ilp),
        })
    }
}

crate::protocol::deserialize_fields!(JobConfig);

/// Lifecycle of a job as observed through [`JobQueue::poll`].
///
/// `Expired` is a *lookup* answer, never a stored state: it means the job
/// reached a terminal state long enough ago that its record was pruned
/// by the retention policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    /// The job was cancelled (while queued, or mid-solve via the
    /// `cancel` verb); a structured terminal state, not a failure.
    Cancelled,
    /// The job's deadline expired mid-solve. The outcome may still carry
    /// a best-effort solution (uncached).
    Deadline,
    /// The terminal record was pruned by retention; the outcome is gone.
    Expired,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Deadline => "deadline",
            JobState::Expired => "expired",
        }
    }

    pub fn from_name(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            "deadline" => Some(JobState::Deadline),
            "expired" => Some(JobState::Expired),
            _ => None,
        }
    }

    /// Whether the job has reached a final state (an expired record was
    /// terminal before it was pruned).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done
                | JobState::Failed
                | JobState::Cancelled
                | JobState::Deadline
                | JobState::Expired
        )
    }

    /// Delivery order of states (queued < running < terminal): a job's
    /// state may only move to a higher rank. Every terminal state,
    /// including `Expired`, outranks running.
    pub fn rank(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            _ => 2,
        }
    }
}

impl serde::Serialize for JobState {
    fn write_json(&self, out: &mut serde::JsonWriter) {
        out.str(self.as_str());
    }
}

impl serde::Deserialize for JobState {
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::DeError> {
        const EXPECTED: &str = "expected queued|running|done|failed|cancelled|deadline|expired";
        if r.peek() != Some(b'"') {
            return Err(serde::DeError::new(EXPECTED));
        }
        JobState::from_name(&r.str()?).ok_or_else(|| serde::DeError::new(EXPECTED))
    }
}

/// The solved mapping as stored in the cache and shipped to clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSolution {
    pub global: GlobalAssignment,
    pub detailed: DetailedMapping,
}

/// Receipt returned by [`JobQueue::submit`].
#[derive(Debug, Clone)]
pub struct JobTicket {
    pub id: u64,
    pub state: JobState,
    /// Whether the submission was satisfied instantly from the cache.
    pub cached: bool,
    pub key: InstanceKey,
}

/// Final (or in-flight) view of one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub id: u64,
    pub state: JobState,
    pub cached: bool,
    /// Instance key; `None` when the record expired (the key went with it).
    pub key: Option<InstanceKey>,
    /// Weighted objective, present when `state == Done`.
    pub objective: Option<f64>,
    /// Canonical solution JSON, present when `state == Done`.
    pub solution_json: Option<Arc<CacheEntry>>,
    /// Failure message, present when `state == Failed` or `Expired`.
    pub error: Option<String>,
    /// Full termination of the solve session, when the job is terminal
    /// and one exists (`Optimal` vs `Feasible` is only observable here
    /// and in the v2 terminal state event — `JobState::Done` covers
    /// both).
    pub termination: Option<Termination>,
    /// Wall time from submission to completion (so far, if still running;
    /// zero for expired records).
    pub wall: Duration,
}

struct Job {
    id: u64,
    design: Design,
    board: Board,
    config: JobConfig,
    /// Per-job wall-clock budget (min-combined with the queue-wide
    /// [`QueueOptions::job_time_limit`]).
    deadline: Option<Duration>,
    key: InstanceKey,
}

struct JobRecord {
    state: JobState,
    cached: bool,
    key: InstanceKey,
    submitted: Instant,
    finished: Option<Instant>,
    solution: Option<Arc<CacheEntry>>,
    error: Option<String>,
    /// Why the solve session ended; `None` until terminal (and for
    /// engine failures, which have no structured termination).
    termination: Option<Termination>,
    /// Cancels this job's solve; shared with the worker executing it.
    cancel: CancelToken,
}

/// Queue construction knobs.
///
/// `#[non_exhaustive]`: start from [`QueueOptions::default`] and assign
/// the fields you care about, so new knobs never break callers.
/// Documented defaults: `workers = 0` (auto, capped at 8),
/// `cache_shards = 16`, `cache_cap = 4096`, `retain_jobs = 1024`,
/// `retain_age = None`, `job_time_limit = None`, `persist_dir = None`
/// (no on-disk tier), `solve_mode = None` (respect per-job configs),
/// `max_inflight = 0` (no admission bound).
///
/// ```
/// use gmm_service::QueueOptions;
///
/// // A long-running daemon: ≤ 256 cached solutions, ≤ 32 terminal job
/// // records per record shard, nothing older than an hour.
/// let mut opts = QueueOptions::default();
/// opts.cache_cap = 256;
/// opts.retain_jobs = 32;
/// opts.retain_age = Some(std::time::Duration::from_secs(3600));
/// assert_eq!(opts.cache_cap, 256);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QueueOptions {
    /// Worker thread count; 0 picks the available parallelism (capped at 8
    /// — each worker runs a full serial MIP solve, so oversubscription
    /// only adds memory pressure).
    pub workers: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Total solution-cache entry bound; 0 = unbounded. Default 4096.
    pub cache_cap: usize,
    /// Terminal job records retained per record shard ([`RECORD_SHARDS`]
    /// shards); 0 = unbounded. Default 1024.
    pub retain_jobs: usize,
    /// Optional age bound on terminal job records.
    pub retain_age: Option<Duration>,
    /// Optional per-job solve deadline.
    pub job_time_limit: Option<Duration>,
    /// Directory for the persistent cache tier (the `--cache-dir` flag).
    /// `None` runs memory-only. Opening failures are logged and degrade
    /// to memory-only — a bad disk never prevents the daemon starting.
    pub persist_dir: Option<std::path::PathBuf>,
    /// Queue-wide solve-mode policy (the daemon's `--solve-mode` flag):
    /// `Some(mode)` forces every submitted job to that mode *before* the
    /// cache key is computed, so per-mode cache slots stay consistent;
    /// `None` (the default) respects each job's own
    /// [`JobConfig::solve_mode`].
    pub solve_mode: Option<SolveMode>,
    /// Admission-control bound: with a nonzero value, a submission
    /// arriving while at least this many jobs are in flight (submitted
    /// but not yet terminal) is rejected by the fallible submit variants
    /// ([`JobQueue::try_submit_watched`] and friends) with a structured
    /// [`Overloaded`] answer carrying a `retry_after_ms` hint — never an
    /// unbounded queue. The infallible [`JobQueue::submit`] family
    /// bypasses the gate (in-process callers own their backpressure).
    /// Default `0` = unbounded.
    pub max_inflight: u64,
}

impl Default for QueueOptions {
    fn default() -> Self {
        QueueOptions {
            workers: 0,
            cache_shards: 16,
            cache_cap: 4096,
            retain_jobs: 1024,
            retain_age: None,
            job_time_limit: None,
            persist_dir: None,
            solve_mode: None,
            max_inflight: 0,
        }
    }
}

/// Capacity of the submit→terminal latency sample ring backing the
/// [`ServiceStats::latency_p50_ms`]/[`ServiceStats::latency_p95_ms`] gauges.
const LATENCY_RING: usize = 512;

/// Structured admission-control rejection: the queue is at its
/// [`QueueOptions::max_inflight`] bound. Never a panic and never a
/// silent queue — the caller is told exactly how loaded the queue is
/// and when to come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Jobs in flight (submitted, not yet terminal) at rejection time.
    pub inflight: u64,
    /// The configured bound that was hit.
    pub max_inflight: u64,
    /// Suggested client back-off before resubmitting, scaled by the
    /// queue's recent median submit→terminal latency (bounded to
    /// 25 ms..5 s) so clients retry at the pace the queue drains.
    pub retry_after_ms: u64,
}

/// Number of job-record shards (power of two; ids spread round-robin
/// because they are sequential).
pub const RECORD_SHARDS: usize = 16;

/// One record shard plus its completion-order list of terminal ids.
struct RecordShard {
    records: HashMap<u64, JobRecord>,
    /// Terminal ids in completion order; fronts are the oldest and are
    /// pruned first. 1:1 with terminal entries of `records`.
    terminal: VecDeque<u64>,
}

struct ShardSync {
    state: Mutex<RecordShard>,
    /// Signaled on every terminal transition in this shard.
    cond: Condvar,
}

struct Inner {
    /// Jobs waiting for a worker, oldest first.
    jobs: Mutex<VecDeque<Job>>,
    /// Signaled on every push and on shutdown; workers park on it with
    /// the `jobs` lock, re-checking the list and `shutdown` under it.
    work_cond: Condvar,
    records: Vec<ShardSync>,
    cache: SolutionCache,
    /// On-disk tier + warm-start hint store; `None` without a
    /// [`QueueOptions::persist_dir`].
    persist: Option<Arc<PersistStore>>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline_hit: AtomicU64,
    pruned: AtomicU64,
    /// Simplex pivots across all completed solves (cache hits add 0).
    lp_iterations: AtomicU64,
    /// Basis refactorizations across all completed solves.
    refactorizations: AtomicU64,
    /// Worst per-LP eta fill-in any solve reported.
    eta_nnz_peak: AtomicU64,
    /// Solves that accepted a family warm-start hint as their incumbent.
    incumbent_seeded: AtomicU64,
    /// Solves where the greedy heuristic produced a feasible assignment.
    heuristic_solved: AtomicU64,
    /// Portfolio solves whose greedy assignment seeded branch-and-bound.
    heuristic_seeded: AtomicU64,
    /// Heuristic/portfolio solves where the greedy found no fit.
    heuristic_infeasible: AtomicU64,
    /// Set under the `jobs` lock, so a push either lands before it (and
    /// a worker still drains the job) or sees it and refuses the job.
    shutdown: AtomicBool,
    idle_lock: Mutex<()>,
    /// Signaled on every terminal transition (for [`JobQueue::wait_idle`]).
    idle_cond: Condvar,
    /// Event subscribers (watch streams), by subscription id.
    watchers: Mutex<HashMap<u64, Arc<Outbox>>>,
    /// Mirror of `watchers.len()`, so the emit fast path is one load.
    watcher_count: AtomicUsize,
    next_watcher: AtomicU64,
    /// Shared with every outbox this queue creates; counts frames the
    /// bounded queues discarded.
    events_dropped: Arc<AtomicU64>,
    /// Recent submit→terminal latencies, ms offset by +1 (0 = empty
    /// slot): a lock-free ring over the last [`LATENCY_RING`] terminal
    /// jobs, written under the record-shard lock, read racily by
    /// `stats` (a torn percentile read is just a stale gauge).
    latency_ring: Vec<AtomicU64>,
    /// Ring write cursor (total latency samples ever recorded).
    latency_samples: AtomicU64,
    /// Admission-control bound ([`QueueOptions::max_inflight`]); 0 = off.
    max_inflight: u64,
    retain_jobs: usize,
    retain_age: Option<Duration>,
    job_time_limit: Option<Duration>,
    /// Queue-wide solve-mode policy ([`QueueOptions::solve_mode`]).
    solve_mode: Option<SolveMode>,
    started: Instant,
}

/// How a job id resolved against the record shards.
enum Lookup<T> {
    Found(T),
    /// The id was issued, its job finished, and its record was pruned.
    Expired,
    /// The id was never issued by this queue.
    Unknown,
}

impl Inner {
    fn record_shard(&self, id: u64) -> &ShardSync {
        &self.records[(id as usize) & (RECORD_SHARDS - 1)]
    }

    /// Prune this shard's terminal records down to the count/age caps.
    /// Returns how many were removed. Caller holds the shard lock.
    fn prune_locked(&self, shard: &mut RecordShard) -> u64 {
        let mut removed = 0;
        if self.retain_jobs > 0 {
            while shard.terminal.len() > self.retain_jobs {
                let id = shard.terminal.pop_front().expect("len checked");
                shard.records.remove(&id);
                removed += 1;
            }
        }
        if let Some(age) = self.retain_age {
            let now = Instant::now();
            while let Some(&id) = shard.terminal.front() {
                let old = shard
                    .records
                    .get(&id)
                    .and_then(|r| r.finished)
                    .is_some_and(|t| now.duration_since(t) > age);
                if !old {
                    break;
                }
                shard.terminal.pop_front();
                shard.records.remove(&id);
                removed += 1;
            }
        }
        if removed > 0 {
            self.pruned.fetch_add(removed, Ordering::Relaxed);
        }
        removed
    }

    /// The terminal-transition protocol, under the caller's shard lock:
    /// store the result, count it, append to the completion-order list,
    /// run retention. Returns whether the transition happened — a no-op
    /// (`false`) if the record is already terminal (e.g. a
    /// cancelled-while-queued job raced the worker) or was pruned, so
    /// terminal counters never double-count. The caller must notify the
    /// shard condvar and the idle condvar after dropping the lock iff
    /// this returns `true`.
    fn finish_locked(
        &self,
        shard: &mut RecordShard,
        id: u64,
        state: JobState,
        termination: Option<Termination>,
        solution: Option<Arc<CacheEntry>>,
        error: Option<String>,
        cached: bool,
    ) -> bool {
        debug_assert!(state.is_terminal() && state != JobState::Expired);
        let Some(r) = shard.records.get_mut(&id) else {
            return false;
        };
        if r.state.is_terminal() {
            return false;
        }
        let now = Instant::now();
        self.record_latency(now - r.submitted);
        r.finished = Some(now);
        r.cached = cached;
        r.state = state;
        r.termination = termination;
        r.solution = solution;
        r.error = error;
        match state {
            JobState::Done => self.completed.fetch_add(1, Ordering::AcqRel),
            JobState::Failed => self.failed.fetch_add(1, Ordering::AcqRel),
            JobState::Cancelled => self.cancelled.fetch_add(1, Ordering::AcqRel),
            JobState::Deadline => self.deadline_hit.fetch_add(1, Ordering::AcqRel),
            _ => unreachable!("finish requires a storable terminal state"),
        };
        shard.terminal.push_back(id);
        self.prune_locked(shard);
        true
    }

    /// Mark a job terminal in `state`, store its result, run retention,
    /// wake every waiter, and emit the terminal state event to watchers.
    fn finish(
        &self,
        id: u64,
        state: JobState,
        termination: Option<Termination>,
        solution: Option<Arc<CacheEntry>>,
        error: Option<String>,
        cached: bool,
    ) {
        let sync = self.record_shard(id);
        let transitioned = {
            let mut shard = sync.state.lock();
            self.finish_locked(&mut shard, id, state, termination, solution, error, cached)
        };
        if transitioned {
            // Events first: by the time a wait()/wait_idle() waiter wakes
            // and reads the outcome, the terminal frame is already in
            // every subscriber's outbox.
            self.emit_state(id, state, termination);
            self.emit_stats_delta();
            sync.cond.notify_all();
            self.notify_idle();
        }
    }

    /// Fan one event out to every subscriber's outbox. Never called with
    /// a record-shard lock held (the outbox may itself take shard locks
    /// while snapshotting a `watch`), and never blocks on a consumer —
    /// the outboxes are bounded drop-oldest queues.
    fn emit(&self, ev: JobEvent) {
        if self.watcher_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let sinks: Vec<Arc<Outbox>> = self.watchers.lock().values().cloned().collect();
        for sink in sinks {
            sink.push_event(&ev);
        }
    }

    fn emit_state(&self, job: u64, state: JobState, termination: Option<Termination>) {
        self.emit(JobEvent::State {
            job,
            state,
            termination,
        });
    }

    /// The queue-level gauge payload pushed as a `stats` event frame.
    fn stats_delta(&self) -> StatsDelta {
        let (p50, p95) = self.latency_percentiles();
        StatsDelta {
            queue_depth: self.inflight(),
            jobs_submitted: self.submitted.load(Ordering::Acquire),
            jobs_completed: self.completed.load(Ordering::Acquire),
            jobs_failed: self.failed.load(Ordering::Acquire),
            jobs_cancelled: self.cancelled.load(Ordering::Acquire),
            jobs_deadline: self.deadline_hit.load(Ordering::Acquire),
            latency_p50_ms: p50,
            latency_p95_ms: p95,
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
        }
    }

    /// Offer a stats delta to subscribers. The percentile scan is only
    /// paid when somebody is subscribed; outboxes that never opted in
    /// filter the frame at their lock.
    fn emit_stats_delta(&self) {
        if self.watcher_count.load(Ordering::Acquire) == 0 {
            return;
        }
        self.emit(JobEvent::Stats(self.stats_delta()));
    }

    /// Record one submit→terminal latency sample into the ring.
    fn record_latency(&self, wall: Duration) {
        let i = self.latency_samples.fetch_add(1, Ordering::Relaxed) as usize % LATENCY_RING;
        self.latency_ring[i].store(wall.as_millis() as u64 + 1, Ordering::Relaxed);
    }

    /// (p50, p95) of the recent submit→terminal latency samples, in ms;
    /// (0, 0) before the first terminal job.
    fn latency_percentiles(&self) -> (u64, u64) {
        let mut v: Vec<u64> = self
            .latency_ring
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&ms| ms > 0)
            .map(|ms| ms - 1)
            .collect();
        if v.is_empty() {
            return (0, 0);
        }
        v.sort_unstable();
        let pick = |p: usize| v[(v.len() - 1) * p / 100];
        (pick(50), pick(95))
    }

    /// Jobs submitted but not yet terminal (the queue-depth gauge and
    /// the admission-control measure).
    fn inflight(&self) -> u64 {
        self.submitted
            .load(Ordering::Acquire)
            .saturating_sub(self.terminal_total())
    }

    /// Sum of jobs in any terminal state (the `wait_idle` drain check).
    fn terminal_total(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
            + self.failed.load(Ordering::Acquire)
            + self.cancelled.load(Ordering::Acquire)
            + self.deadline_hit.load(Ordering::Acquire)
    }

    /// Wake `wait_idle` callers. Taking the idle lock (even empty) before
    /// notifying pairs with the waiter's check-then-wait under the same
    /// lock, so a completion can never slip between the two.
    fn notify_idle(&self) {
        drop(self.idle_lock.lock());
        self.idle_cond.notify_all();
    }

    /// Append a job to the list and wake one parked worker. Returns
    /// `false`, leaving the job unqueued, once the queue is shut down:
    /// the workers may already have drained the list and exited.
    fn push_job(&self, job: Job) -> bool {
        let mut jobs = self.jobs.lock();
        if self.shutdown.load(Ordering::Acquire) {
            return false;
        }
        jobs.push_back(job);
        drop(jobs);
        self.work_cond.notify_one();
        true
    }

    /// The next job in submission order, parking while the list is
    /// empty; `None` once it is empty and the queue is shut down, so
    /// shutdown still drains queued work.
    fn next_job(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            jobs = self.work_cond.wait(jobs);
        }
    }

    /// Resolve an id against the records, classifying misses as expired
    /// (id already issued) or unknown (id never issued).
    ///
    /// The classification is definitive for any id obtained from a
    /// `submit` return value: its record is published before `submit`
    /// returns. Only a client *guessing* ids can race the few
    /// instructions between id allocation and record publication and
    /// transiently read a fresh id as expired.
    fn lookup<T>(&self, id: u64, read: impl FnOnce(&JobRecord) -> T) -> Lookup<T> {
        let shard = self.record_shard(id).state.lock();
        if let Some(r) = shard.records.get(&id) {
            return Lookup::Found(read(r));
        }
        drop(shard);
        if id != 0 && id < self.next_id.load(Ordering::Acquire) {
            Lookup::Expired
        } else {
            Lookup::Unknown
        }
    }
}

/// The batch solving engine: submit instances, poll for results.
pub struct JobQueue {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    num_workers: usize,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("workers", &self.num_workers)
            .finish()
    }
}

impl JobQueue {
    pub fn new(opts: QueueOptions) -> Self {
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8)
        } else {
            opts.workers
        };
        let persist = opts
            .persist_dir
            .as_deref()
            .and_then(|dir| match PersistStore::open(dir) {
                Ok(store) => Some(Arc::new(store)),
                Err(e) => {
                    eprintln!(
                        "mapsrv: cannot open persistent cache in {}: {e} (continuing memory-only)",
                        dir.display()
                    );
                    None
                }
            });
        let inner = Arc::new(Inner {
            jobs: Mutex::with_rank(VecDeque::new(), crate::ranks::WORK, "queue-jobs"),
            work_cond: Condvar::new(),
            records: (0..RECORD_SHARDS)
                .map(|_| ShardSync {
                    state: Mutex::with_rank(
                        RecordShard {
                            records: HashMap::new(),
                            terminal: VecDeque::new(),
                        },
                        crate::ranks::RECORD_SHARD,
                        "queue-record-shard",
                    ),
                    cond: Condvar::new(),
                })
                .collect(),
            cache: SolutionCache::new(opts.cache_shards, opts.cache_cap),
            persist: persist.clone(),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            deadline_hit: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            lp_iterations: AtomicU64::new(0),
            refactorizations: AtomicU64::new(0),
            eta_nnz_peak: AtomicU64::new(0),
            incumbent_seeded: AtomicU64::new(0),
            heuristic_solved: AtomicU64::new(0),
            heuristic_seeded: AtomicU64::new(0),
            heuristic_infeasible: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::with_rank((), crate::ranks::IDLE, "queue-idle"),
            idle_cond: Condvar::new(),
            watchers: Mutex::with_rank(HashMap::new(), crate::ranks::WATCHERS, "queue-watchers"),
            watcher_count: AtomicUsize::new(0),
            next_watcher: AtomicU64::new(1),
            events_dropped: Arc::new(AtomicU64::new(0)),
            latency_ring: (0..LATENCY_RING).map(|_| AtomicU64::new(0)).collect(),
            latency_samples: AtomicU64::new(0),
            max_inflight: opts.max_inflight,
            retain_jobs: opts.retain_jobs,
            retain_age: opts.retain_age,
            job_time_limit: opts.job_time_limit,
            solve_mode: opts.solve_mode,
            started: Instant::now(),
        });
        // LRU evictions spill to disk, so the persistent tier covers the
        // full history of optimal solves, not just what memory holds.
        // (`put` dedups on key, so re-spilling a promoted entry is free.)
        if let Some(store) = &persist {
            let store = store.clone();
            inner.cache.set_spill(move |key, entry| {
                store.put(key, entry.objective, &entry.solution_json);
            });
        }

        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("mapsrv-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = inner.next_job() {
                            process(job, &inner);
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();

        JobQueue {
            inner,
            workers: Mutex::with_rank(
                handles,
                crate::ranks::WORKER_HANDLES,
                "queue-worker-handles",
            ),
            num_workers: workers,
        }
    }

    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Submit one instance. Returns instantly; a cache hit completes the
    /// job without touching a worker. After [`JobQueue::shutdown`] the job
    /// is recorded as `Failed` immediately — no worker will ever pop it.
    pub fn submit(&self, design: Design, board: Board, config: JobConfig) -> JobTicket {
        self.submit_with_deadline(design, board, config, None)
    }

    /// [`JobQueue::submit`] with a per-job wall-clock budget: past it the
    /// solve terminates in the structured `deadline` state (carrying a
    /// best-effort solution when one was found in time). Combined (min)
    /// with the queue-wide [`QueueOptions::job_time_limit`].
    pub fn submit_with_deadline(
        &self,
        design: Design,
        board: Board,
        config: JobConfig,
        deadline: Option<Duration>,
    ) -> JobTicket {
        self.submit_inner(design, board, config, deadline, None)
    }

    /// [`JobQueue::submit_with_deadline`] that additionally registers
    /// the job with `outbox`'s watch set *between* record publication
    /// and queue push — before any worker can claim it — so the outbox
    /// observes the complete queued→running→terminal sequence (and,
    /// with `progress`, every bridged progress frame), with no
    /// submit-then-watch race. The outbox must already be
    /// [`JobQueue::subscribe`]d.
    pub fn submit_watched(
        &self,
        design: Design,
        board: Board,
        config: JobConfig,
        deadline: Option<Duration>,
        outbox: &Outbox,
        progress: bool,
    ) -> JobTicket {
        self.submit_inner(design, board, config, deadline, Some((outbox, progress)))
    }

    fn submit_inner(
        &self,
        design: Design,
        board: Board,
        config: JobConfig,
        deadline: Option<Duration>,
        watcher: Option<(&Outbox, bool)>,
    ) -> JobTicket {
        // The queue-wide policy rewrites the mode before the key is
        // computed, so a policy'd daemon caches under the mode it actually
        // solves in.
        let mut config = config;
        if let Some(mode) = self.inner.solve_mode {
            config.solve_mode = mode;
        }
        let key = instance_key(&design, &board, &config);
        let id = self.inner.next_id.fetch_add(1, Ordering::AcqRel);
        self.inner.submitted.fetch_add(1, Ordering::AcqRel);

        // Publish the Queued record *immediately* after allocating the id:
        // `lookup` classifies a missing id below `next_id` as expired, so
        // any work between allocation and insertion would be a window in
        // which a concurrent poll of this id misreads an in-flight
        // submission as a terminal state.
        {
            let mut shard = self.inner.record_shard(id).state.lock();
            // Retention removes a record for every one inserted, and the
            // table gives up a free slot to many of those removals. Out
            // of free slots while more than half full, it would double
            // though its size never changed; rebuilt at its live size,
            // it stays as large as the retention cap needs.
            if shard.records.capacity() == shard.records.len() {
                let live = std::mem::take(&mut shard.records);
                shard.records.reserve(live.len() + 1);
                shard.records.extend(live);
            }
            shard.records.insert(
                id,
                JobRecord {
                    state: JobState::Queued,
                    cached: false,
                    key,
                    submitted: Instant::now(),
                    finished: None,
                    solution: None,
                    error: None,
                    termination: None,
                    cancel: CancelToken::new(),
                },
            );
            // Opportunistic retention tick: sequential ids rotate through
            // every record shard, so steady submission traffic keeps the
            // age cap enforced even on a daemon nobody polls for stats.
            self.inner.prune_locked(&mut shard);
        }

        // The record exists but the job is not yet poppable (and a cache
        // hit has not yet finished it), so the watch registration below
        // cannot miss a transition. The snapshot re-reads the record
        // rather than assuming `Queued`: a racing cancel of a guessed id
        // may already have finished it, and the rank gate then suppresses
        // the duplicate terminal event.
        if let Some((outbox, progress)) = watcher {
            outbox.watch(&[id], progress, |jid| self.state_snapshot(jid));
        }

        if self.inner.shutdown.load(Ordering::Acquire) {
            return self.refuse_shut_down(id, key);
        }

        if let Some(entry) = self.inner.cache.get(key) {
            // Only optimal solves enter the cache, so a hit is optimal.
            self.inner.finish(
                id,
                JobState::Done,
                Some(Termination::Optimal),
                Some(entry),
                None,
                true,
            );
            return JobTicket {
                id,
                state: JobState::Done,
                cached: true,
                key,
            };
        }

        // A memory miss falls through to the on-disk tier: a restart (or
        // an LRU eviction) moved the solution out of memory, not out of
        // existence. The hit is promoted back into the memory tier —
        // first writer wins there, so the payload stays byte-identical
        // even if a racing solve of the same instance got there first.
        if let Some(store) = &self.inner.persist {
            if let Some(entry) = disk_entry(store, key) {
                let stored = self.inner.cache.insert(key, entry);
                self.inner.finish(
                    id,
                    JobState::Done,
                    Some(Termination::Optimal),
                    Some(stored),
                    None,
                    true,
                );
                return JobTicket {
                    id,
                    state: JobState::Done,
                    cached: true,
                    key,
                };
            }
        }

        let job = Job {
            id,
            design,
            board,
            config,
            deadline,
            key,
        };
        if !self.inner.push_job(job) {
            return self.refuse_shut_down(id, key);
        }
        JobTicket {
            id,
            state: JobState::Queued,
            cached: false,
            key,
        }
    }

    /// Fail a submission that arrived after [`JobQueue::shutdown`]: no
    /// worker will ever pop it.
    fn refuse_shut_down(&self, id: u64, key: InstanceKey) -> JobTicket {
        self.inner.finish(
            id,
            JobState::Failed,
            None,
            None,
            Some("queue is shut down".into()),
            false,
        );
        JobTicket {
            id,
            state: JobState::Failed,
            cached: false,
            key,
        }
    }

    /// Admission control: `Err(Overloaded)` when a nonzero
    /// [`QueueOptions::max_inflight`] bound is configured and at least
    /// that many jobs are in flight (submitted but not yet terminal).
    /// With no bound (the default) every submission is admitted.
    pub fn check_admission(&self) -> Result<(), Overloaded> {
        if self.inner.max_inflight == 0 {
            return Ok(());
        }
        let inflight = self.inner.inflight();
        if inflight < self.inner.max_inflight {
            return Ok(());
        }
        let (p50, _) = self.inner.latency_percentiles();
        Err(Overloaded {
            inflight,
            max_inflight: self.inner.max_inflight,
            retry_after_ms: p50.clamp(25, 5_000),
        })
    }

    /// [`JobQueue::submit_with_deadline`] behind the admission gate: at
    /// or past a configured [`QueueOptions::max_inflight`] the job is
    /// rejected with the structured [`Overloaded`] answer instead of
    /// queueing unboundedly. The gate runs before the cache lookup, so
    /// an overloaded queue sheds even would-be cache hits — admission is
    /// a load statement, not an oracle.
    pub fn try_submit_with_deadline(
        &self,
        design: Design,
        board: Board,
        config: JobConfig,
        deadline: Option<Duration>,
    ) -> Result<JobTicket, Overloaded> {
        self.check_admission()?;
        Ok(self.submit_inner(design, board, config, deadline, None))
    }

    /// [`JobQueue::submit_watched`] behind the admission gate (see
    /// [`JobQueue::try_submit_with_deadline`]).
    pub fn try_submit_watched(
        &self,
        design: Design,
        board: Board,
        config: JobConfig,
        deadline: Option<Duration>,
        outbox: &Outbox,
        progress: bool,
    ) -> Result<JobTicket, Overloaded> {
        self.check_admission()?;
        Ok(self.submit_inner(design, board, config, deadline, Some((outbox, progress))))
    }

    /// Cancel a job. Queued jobs transition to the structured
    /// `cancelled` terminal state immediately; running jobs have their
    /// [`CancelToken`] fired and transition when the solver notices
    /// (milliseconds — it polls per node and every few pivots). Already
    /// terminal jobs are left as they are.
    ///
    /// Returns the job's state as of this call (`Cancelled` for a
    /// queued job, `Running` for an in-flight one, the terminal state
    /// otherwise); `None` only for ids this queue never issued.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let sync = self.inner.record_shard(id);
        let mut shard = sync.state.lock();
        // Fire the token whatever the state (harmless once terminal): a
        // running solve notices within milliseconds.
        let state = shard.records.get(&id).map(|r| {
            r.cancel.cancel();
            r.state
        });
        match state {
            Some(JobState::Queued) => {
                // Same terminal-transition protocol as a worker finish;
                // the worker that eventually pops this job sees a
                // terminal record and skips it.
                let transitioned = self.inner.finish_locked(
                    &mut shard,
                    id,
                    JobState::Cancelled,
                    Some(Termination::Cancelled),
                    None,
                    Some(format!("job {id} cancelled while queued")),
                    false,
                );
                drop(shard);
                if transitioned {
                    self.inner
                        .emit_state(id, JobState::Cancelled, Some(Termination::Cancelled));
                    self.inner.emit_stats_delta();
                    sync.cond.notify_all();
                    self.inner.notify_idle();
                }
                Some(JobState::Cancelled)
            }
            Some(state) => Some(state),
            None => {
                drop(shard);
                match self.inner.lookup(id, |r| r.state) {
                    Lookup::Found(state) => Some(state),
                    Lookup::Expired => Some(JobState::Expired),
                    Lookup::Unknown => None,
                }
            }
        }
    }

    /// Current state of a job: `Some(Expired)` when the terminal record
    /// was pruned by retention, `None` only for ids this queue never
    /// issued.
    pub fn poll(&self, id: u64) -> Option<JobState> {
        match self.inner.lookup(id, |r| r.state) {
            Lookup::Found(state) => Some(state),
            Lookup::Expired => Some(JobState::Expired),
            Lookup::Unknown => None,
        }
    }

    /// Full view of a job. A pruned id yields a structured `Expired`
    /// outcome (no payload, an explanatory error); `None` only for ids
    /// this queue never issued.
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        match self.inner.lookup(id, |r| JobOutcome {
            id,
            state: r.state,
            cached: r.cached,
            key: Some(r.key),
            objective: r.solution.as_ref().map(|s| s.objective),
            solution_json: r.solution.clone(),
            error: r.error.clone(),
            termination: r.termination,
            wall: r.finished.unwrap_or_else(Instant::now) - r.submitted,
        }) {
            Lookup::Found(out) => Some(out),
            Lookup::Expired => Some(expired_outcome(id)),
            Lookup::Unknown => None,
        }
    }

    /// Block until the job reaches a terminal state (or the timeout).
    /// Signal-driven: parks on the record shard's condvar, which every
    /// terminal transition notifies.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobOutcome> {
        let deadline = Instant::now() + timeout;
        let sync = self.inner.record_shard(id);
        let mut shard = sync.state.lock();
        loop {
            match shard.records.get(&id) {
                // Missing: expired or unknown — outcome() classifies.
                None => {
                    drop(shard);
                    return self.outcome(id);
                }
                Some(r) if r.state.is_terminal() => {
                    drop(shard);
                    return self.outcome(id);
                }
                Some(_) => {
                    let now = Instant::now();
                    if now >= deadline {
                        drop(shard);
                        return self.outcome(id);
                    }
                    let (guard, _) = sync.cond.wait_for(shard, deadline - now);
                    shard = guard;
                }
            }
        }
    }

    /// Block until every submitted job is terminal (or the timeout);
    /// returns whether the queue fully drained. Signal-driven via the
    /// queue-wide completion condvar.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.inner.idle_lock.lock();
        loop {
            let done = self.inner.terminal_total();
            if done >= self.inner.submitted.load(Ordering::Acquire) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self.inner.idle_cond.wait_for(guard, deadline - now);
            guard = g;
        }
    }

    /// Every counter and gauge the queue keeps, with its cache tiers
    /// flattened in. `proto_versions` reads zero: connections are a
    /// server concept (see [`crate::server::service_stats`]).
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let (p50, p95) = inner.latency_percentiles();
        let cache = inner.cache.stats();
        let persist = inner
            .persist
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default();
        ServiceStats {
            jobs_submitted: inner.submitted.load(Ordering::Acquire),
            jobs_completed: inner.completed.load(Ordering::Acquire),
            jobs_failed: inner.failed.load(Ordering::Acquire),
            jobs_cancelled: inner.cancelled.load(Ordering::Acquire),
            jobs_deadline: inner.deadline_hit.load(Ordering::Acquire),
            jobs_pruned: inner.pruned.load(Ordering::Relaxed),
            retain_jobs: inner.retain_jobs as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries,
            cache_evictions: cache.evictions,
            cache_cap: cache.capacity,
            workers: self.num_workers as u64,
            uptime_ms: inner.started.elapsed().as_millis() as u64,
            proto_versions: ProtoVersions::default(),
            events_dropped: inner.events_dropped.load(Ordering::Relaxed),
            lp_iterations: inner.lp_iterations.load(Ordering::Relaxed),
            refactorizations: inner.refactorizations.load(Ordering::Relaxed),
            eta_nnz_peak: inner.eta_nnz_peak.load(Ordering::Relaxed),
            disk_entries: persist.disk_entries,
            disk_hits: persist.disk_hits,
            disk_misses: persist.disk_misses,
            disk_corrupt: persist.disk_corrupt,
            hint_entries: persist.hint_entries,
            hint_hits: persist.hint_hits,
            hint_misses: persist.hint_misses,
            incumbent_seeded: inner.incumbent_seeded.load(Ordering::Relaxed),
            heuristic_solved: inner.heuristic_solved.load(Ordering::Relaxed),
            heuristic_seeded: inner.heuristic_seeded.load(Ordering::Relaxed),
            heuristic_infeasible: inner.heuristic_infeasible.load(Ordering::Relaxed),
            queue_depth: inner.inflight(),
            latency_p50_ms: p50,
            latency_p95_ms: p95,
        }
    }

    pub fn cache(&self) -> &SolutionCache {
        &self.inner.cache
    }

    /// The persistent tier, when the queue was built with a
    /// [`QueueOptions::persist_dir`].
    pub fn persist(&self) -> Option<&PersistStore> {
        self.inner.persist.as_deref()
    }

    /// Create an event outbox wired to this queue's `events_dropped`
    /// counter. `cap` bounds queued progress frames (state frames are
    /// never dropped); subscribe it with [`JobQueue::subscribe`] to
    /// start receiving events.
    pub fn make_outbox(&self, cap: usize) -> Arc<Outbox> {
        Arc::new(Outbox::new(cap, self.inner.events_dropped.clone()))
    }

    /// Register an outbox with the event fan-out. Every job state
    /// transition and bridged progress notification is offered to it
    /// (the outbox filters by its watched set). Returns the
    /// subscription id for [`JobQueue::unsubscribe`].
    pub fn subscribe(&self, outbox: Arc<Outbox>) -> u64 {
        let id = self.inner.next_watcher.fetch_add(1, Ordering::AcqRel);
        let mut watchers = self.inner.watchers.lock();
        watchers.insert(id, outbox);
        self.inner
            .watcher_count
            .store(watchers.len(), Ordering::Release);
        id
    }

    /// Remove a subscription; the outbox receives nothing further.
    pub fn unsubscribe(&self, id: u64) {
        let mut watchers = self.inner.watchers.lock();
        watchers.remove(&id);
        self.inner
            .watcher_count
            .store(watchers.len(), Ordering::Release);
    }

    /// Current state + termination of a job, for `watch` snapshots:
    /// `Some((Expired, None))` for pruned ids, `None` only for ids this
    /// queue never issued.
    pub fn state_snapshot(&self, id: u64) -> Option<(JobState, Option<Termination>)> {
        match self.inner.lookup(id, |r| (r.state, r.termination)) {
            Lookup::Found(snap) => Some(snap),
            Lookup::Expired => Some((JobState::Expired, None)),
            Lookup::Unknown => None,
        }
    }

    /// Sweep age-based retention across all record shards now. Terminal
    /// transitions and submissions prune their own shard
    /// opportunistically (sequential ids rotate submissions through
    /// every shard, so steady traffic keeps age caps enforced without
    /// anyone calling `stats`); this full sweep is for quiet queues —
    /// the `stats` verb calls it so old records do not linger idle.
    pub fn sweep_retention(&self) -> u64 {
        let mut removed = 0;
        for sync in &self.inner.records {
            let mut shard = sync.state.lock();
            removed += self.inner.prune_locked(&mut shard);
        }
        removed
    }

    /// Drain remaining work and stop the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let _jobs = self.inner.jobs.lock();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        // Wake every parked worker so it drains the list and exits.
        self.inner.work_cond.notify_all();
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A disk-tier solution as a memory-cache entry. The daemon copies
/// cached payloads onto the wire unparsed, so the memory cache must only
/// ever hold valid JSON: a record whose payload no longer parses (the
/// file was damaged after its checksum was verified at load) is served
/// as a miss and solved again.
fn disk_entry(store: &PersistStore, key: InstanceKey) -> Option<CacheEntry> {
    let (objective, solution_json) = store.get(key)?;
    serde_json::from_str::<serde_json::Value>(&solution_json).ok()?;
    Some(CacheEntry {
        solution_json,
        objective,
    })
}

/// The structured answer for a pruned job id.
fn expired_outcome(id: u64) -> JobOutcome {
    JobOutcome {
        id,
        state: JobState::Expired,
        cached: false,
        key: None,
        objective: None,
        solution_json: None,
        error: Some(format!(
            "job {id} expired: its terminal record was pruned by the retention policy"
        )),
        termination: None,
        wall: Duration::ZERO,
    }
}

fn process(job: Job, inner: &Arc<Inner>) {
    // Claim the job: only a still-Queued record may start running. A
    // cancel that landed while the job sat in the list already made the
    // record terminal — skip it without touching any counter.
    let cancel = {
        let mut shard = inner.record_shard(job.id).state.lock();
        match shard.records.get_mut(&job.id) {
            Some(r) if r.state == JobState::Queued => {
                r.state = JobState::Running;
                r.cancel.clone()
            }
            _ => return,
        }
    };
    inner.emit_state(job.id, JobState::Running, None);

    // A duplicate instance may have been solved while this one sat queued;
    // `peek` keeps the hit/miss counters a pure per-submission signal.
    if let Some(entry) = inner.cache.peek(job.key) {
        inner.finish(
            job.id,
            JobState::Done,
            Some(Termination::Optimal),
            Some(entry),
            None,
            true,
        );
        return;
    }
    // Same recheck against the disk tier (a duplicate's solution may
    // already have been evicted from memory). `contains` first so a cold
    // solve does not count a second disk miss on top of submit's.
    if let Some(store) = &inner.persist {
        if store.contains(job.key) {
            if let Some(entry) = disk_entry(store, job.key) {
                let stored = inner.cache.insert(job.key, entry);
                inner.finish(
                    job.id,
                    JobState::Done,
                    Some(Termination::Optimal),
                    Some(stored),
                    None,
                    true,
                );
                return;
            }
        }
    }

    // Everything below the queue goes through the one facade the CLI and
    // in-process callers use, so deadlines and cancellation behave
    // identically no matter how the solve was started.
    let mut mip = MipOptions::default();
    mip.simplex.basis = job.config.lp_basis.into();
    mip.simplex.pricing = job.config.lp_pricing.into();
    let deadline = match (job.deadline, inner.job_time_limit) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    // Bridge solver progress into the event fan-out: each notification
    // becomes a value-typed frame offered to every subscriber's bounded
    // outbox. With no subscribers this is one atomic load per event.
    let progress = {
        let inner = inner.clone();
        let job_id = job.id;
        ForwardProgress::new(move |ev: gmm_api::ProgressEvent| {
            inner.emit(JobEvent::Progress {
                job: job_id,
                frame: ev.into(),
            });
        })
    };
    // A cold solve may still inherit a warm start: the hint store keys on
    // the instance *family* (board constants masked out), so a sibling's
    // assignment seeds branch-and-bound. The ILP layer re-validates the
    // hint against this instance and silently drops a bad fit.
    let family = inner
        .persist
        .as_ref()
        .map(|_| family_key(&job.design, &job.board, &job.config));
    let mut request = MapRequest::new(job.design, job.board)
        .backend(SolverBackend::Serial(mip))
        .overlap_aware(job.config.overlap_aware)
        .solve_mode(job.config.solve_mode)
        .cancel_token(cancel)
        .observer(Arc::new(progress));
    if let (Some(store), Some(f)) = (&inner.persist, family) {
        if let Some(h) = store.hint(f) {
            request = request.warm_hint(h.type_of);
        }
    }
    if job.config.detailed_ilp {
        request = request.strategy(DetailedStrategy::Ilp(DetailedIlpOptions::default()));
    }
    if let Some(d) = deadline {
        request = request.deadline(d);
    }

    let report = match request.execute() {
        Ok(report) => report,
        Err(e) => {
            inner.finish(
                job.id,
                JobState::Failed,
                None,
                None,
                Some(e.to_string()),
                false,
            );
            return;
        }
    };
    inner
        .lp_iterations
        .fetch_add(report.lp_iterations, Ordering::Relaxed);
    inner
        .refactorizations
        .fetch_add(report.refactorizations, Ordering::Relaxed);
    inner
        .eta_nnz_peak
        .fetch_max(report.eta_nnz_peak, Ordering::Relaxed);
    inner
        .incumbent_seeded
        .fetch_add(report.incumbent_seeded, Ordering::Relaxed);
    if report.heuristic_objective.is_some() {
        inner.heuristic_solved.fetch_add(1, Ordering::Relaxed);
        // With a greedy seed in play the warm hint *was* the greedy
        // assignment (it overrides any family hint), so a seeded
        // incumbent here is the heuristic fast path paying off.
        if job.config.solve_mode == SolveMode::Portfolio && report.incumbent_seeded > 0 {
            inner.heuristic_seeded.fetch_add(1, Ordering::Relaxed);
        }
    } else if job.config.solve_mode != SolveMode::Ilp {
        inner.heuristic_infeasible.fetch_add(1, Ordering::Relaxed);
    }
    let mut assignment: Option<Vec<u32>> = None;
    let entry = report.outcome.map(|outcome| {
        assignment = Some(outcome.global.type_of.iter().map(|t| t.0 as u32).collect());
        let solution = JobSolution {
            global: outcome.global,
            detailed: outcome.detailed,
        };
        CacheEntry {
            solution_json: canonical_json(&solution),
            objective: report.objective.expect("outcome implies objective"),
        }
    });
    match report.termination {
        Termination::Optimal => {
            // First writer wins, so a lost race still hands out the
            // byte-identical original payload. Only *optimal* solves are
            // cached: a deadline- or budget-shaped incumbent is not a
            // deterministic function of the instance.
            let entry = entry.expect("optimal termination carries an outcome");
            // Persist before the memory insert so even an instant
            // crash-after-finish can replay this solve from disk; the
            // family hint is refreshed last-writer-wins.
            if let Some(store) = &inner.persist {
                store.put(job.key, entry.objective, &entry.solution_json);
                if let (Some(f), Some(type_of)) = (family, assignment.take()) {
                    store.put_hint(
                        f,
                        &WarmHint {
                            objective: entry.objective,
                            type_of,
                        },
                    );
                }
            }
            let stored = inner.cache.insert(job.key, entry);
            inner.finish(
                job.id,
                JobState::Done,
                Some(Termination::Optimal),
                Some(stored),
                None,
                false,
            );
        }
        Termination::Feasible => {
            inner.finish(
                job.id,
                JobState::Done,
                Some(Termination::Feasible),
                entry.map(Arc::new),
                None,
                false,
            );
        }
        Termination::DeadlineExceeded => inner.finish(
            job.id,
            JobState::Deadline,
            Some(Termination::DeadlineExceeded),
            entry.map(Arc::new),
            Some(format!("job {} deadline exceeded", job.id)),
            false,
        ),
        Termination::Cancelled => inner.finish(
            job.id,
            JobState::Cancelled,
            Some(Termination::Cancelled),
            None,
            Some(format!("job {} cancelled", job.id)),
            false,
        ),
        Termination::Infeasible => inner.finish(
            job.id,
            JobState::Failed,
            Some(Termination::Infeasible),
            None,
            Some(
                report
                    .diagnostic
                    .unwrap_or_else(|| "board cannot host the design".into()),
            ),
            false,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_workloads::{random_design, RandomDesignSpec};

    fn small_instance(seed: u64) -> (Design, Board) {
        let design = random_design(&RandomDesignSpec {
            segments: 6,
            depth: (16, 256),
            width: (1, 8),
            seed,
            ..RandomDesignSpec::default()
        });
        let board = Board::prototyping("XCV300", 2).unwrap();
        (design, board)
    }

    #[test]
    fn solves_and_caches() {
        let q = JobQueue::new(QueueOptions {
            workers: 2,
            ..QueueOptions::default()
        });
        let (design, board) = small_instance(1);
        let t = q.submit(design.clone(), board.clone(), JobConfig::default());
        assert!(!t.cached);
        let out = q.wait(t.id, Duration::from_secs(60)).unwrap();
        assert_eq!(out.state, JobState::Done);
        let cold = out.solution_json.unwrap();

        let t2 = q.submit(design, board, JobConfig::default());
        assert!(t2.cached, "identical resubmission must hit the cache");
        let out2 = q.outcome(t2.id).unwrap();
        assert_eq!(out2.state, JobState::Done);
        assert_eq!(
            out2.solution_json.unwrap().solution_json,
            cold.solution_json,
            "cache hit must be byte-identical"
        );
        assert_eq!(q.stats().cache_hits, 1);
    }

    #[test]
    fn queue_wide_solve_mode_policy_rewrites_jobs_and_keys() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            solve_mode: Some(SolveMode::Portfolio),
            ..QueueOptions::default()
        });
        let (design, board) = small_instance(9);
        // The job asks for ilp; the policy forces portfolio, so the
        // heuristic counters move and the key matches an explicit
        // portfolio submission (one cache slot, not two).
        let a = q.submit(design.clone(), board.clone(), JobConfig::default());
        let out = q.wait(a.id, Duration::from_secs(60)).unwrap();
        assert_eq!(out.state, JobState::Done);
        let s = q.stats();
        assert_eq!(s.heuristic_solved, 1, "{s:?}");
        let b = q.submit(
            design,
            board,
            JobConfig {
                solve_mode: SolveMode::Portfolio,
                ..JobConfig::default()
            },
        );
        assert_eq!(a.key, b.key, "policy'd key must be the portfolio key");
        assert!(b.cached, "second submission must hit the same cache slot");
        assert!(q.wait_idle(Duration::from_secs(60)));
    }

    #[test]
    fn different_config_is_a_different_instance() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            ..QueueOptions::default()
        });
        let (design, board) = small_instance(2);
        let a = q.submit(design.clone(), board.clone(), JobConfig::default());
        let b = q.submit(
            design,
            board,
            JobConfig {
                overlap_aware: true,
                ..JobConfig::default()
            },
        );
        assert_ne!(a.key, b.key);
        assert!(q.wait_idle(Duration::from_secs(60)));
    }

    #[test]
    fn infeasible_job_fails_cleanly() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            ..QueueOptions::default()
        });
        // 40 huge segments cannot fit the small prototyping board.
        let design = random_design(&RandomDesignSpec {
            segments: 40,
            depth: (60_000, 65_000),
            width: (30, 32),
            seed: 3,
            ..RandomDesignSpec::default()
        });
        let board = Board::prototyping("XCV300", 1).unwrap();
        let t = q.submit(design, board, JobConfig::default());
        let out = q.wait(t.id, Duration::from_secs(60)).unwrap();
        assert_eq!(out.state, JobState::Failed);
        assert!(out.error.is_some());
        assert_eq!(q.stats().jobs_failed, 1);
    }

    #[test]
    fn work_spreads_across_many_jobs() {
        let q = JobQueue::new(QueueOptions {
            workers: 4,
            ..QueueOptions::default()
        });
        let mut ids = Vec::new();
        for seed in 0..12 {
            let (design, board) = small_instance(100 + seed);
            ids.push(q.submit(design, board, JobConfig::default()).id);
        }
        assert!(q.wait_idle(Duration::from_secs(120)), "queue must drain");
        for id in ids {
            assert_eq!(q.outcome(id).unwrap().state, JobState::Done);
        }
        let s = q.stats();
        assert_eq!(s.jobs_completed, 12);
        assert_eq!(s.cache_entries, 12);
    }

    #[test]
    fn submit_after_shutdown_fails_fast() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            ..QueueOptions::default()
        });
        q.shutdown();
        let (design, board) = small_instance(4);
        let t = q.submit(design, board, JobConfig::default());
        assert_eq!(
            t.state,
            JobState::Failed,
            "no worker will ever pop this job"
        );
        let out = q.outcome(t.id).unwrap();
        assert_eq!(out.state, JobState::Failed);
        assert!(out.error.as_deref().unwrap().contains("shut down"));
    }

    /// Second-scale instance, so cancels/deadlines land mid-solve.
    fn slow_instance() -> (Design, Board) {
        gmm_workloads::slow_table3_instance()
    }

    #[test]
    fn max_inflight_sheds_load_with_retry_after() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            max_inflight: 2,
            ..QueueOptions::default()
        });
        // Occupy the single worker with a second-scale solve, then fill
        // the rest of the admission window with a queued job.
        let (big_design, big_board) = slow_instance();
        let running = q.submit(big_design, big_board, JobConfig::default());
        let (design, board) = small_instance(77);
        let queued = q.submit(design, board, JobConfig::default());
        // The gated path must now reject, structured, with a retry hint.
        let (design, board) = small_instance(78);
        let err = q
            .try_submit_with_deadline(design, board, JobConfig::default(), None)
            .unwrap_err();
        assert_eq!(err.max_inflight, 2);
        assert!(err.inflight >= 2, "{err:?}");
        assert!(
            (25..=5_000).contains(&err.retry_after_ms),
            "retry hint out of bounds: {err:?}"
        );
        assert!(q.stats().queue_depth >= 2);
        // The infallible path bypasses the gate: in-process callers own
        // their backpressure.
        let (design, board) = small_instance(79);
        assert_eq!(
            q.submit(design, board, JobConfig::default()).state,
            JobState::Queued
        );
        // Draining below the bound re-admits.
        q.cancel(running.id);
        q.cancel(queued.id);
        assert!(q.wait_idle(Duration::from_secs(60)));
        let (design, board) = small_instance(80);
        let t = q
            .try_submit_with_deadline(design, board, JobConfig::default(), None)
            .expect("drained queue must admit");
        let out = q.wait(t.id, Duration::from_secs(60)).unwrap();
        assert_eq!(out.state, JobState::Done);
        let s = q.stats();
        assert_eq!(s.queue_depth, 0, "{s:?}");
        assert!(s.latency_p50_ms <= s.latency_p95_ms, "{s:?}");
    }

    #[test]
    fn cancel_queued_and_running_jobs_is_structured() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            ..QueueOptions::default()
        });
        // Occupy the single worker with a second-scale solve…
        let (big_design, big_board) = slow_instance();
        let running = q.submit(big_design, big_board, JobConfig::default());
        // …then park a second job behind it and cancel it while queued.
        let (design, board) = small_instance(42);
        let queued = q.submit(design, board, JobConfig::default());
        // Give the worker a beat to pop the big job (not the small one:
        // the list is FIFO, and the big job was pushed first).
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(q.cancel(queued.id), Some(JobState::Cancelled));
        assert_eq!(q.poll(queued.id), Some(JobState::Cancelled));
        let out = q.outcome(queued.id).unwrap();
        assert_eq!(out.state, JobState::Cancelled);
        assert!(out.error.as_deref().unwrap().contains("cancelled"));
        assert!(out.solution_json.is_none());

        // Cancelling the running job fires its token; the solver notices
        // within milliseconds and the job terminates cancelled (or the
        // solve won the race and finished).
        let first = q.cancel(running.id).unwrap();
        assert!(
            matches!(first, JobState::Running | JobState::Done),
            "big job should have been running, was {first:?}"
        );
        let out = q.wait(running.id, Duration::from_secs(60)).unwrap();
        assert!(
            matches!(out.state, JobState::Cancelled | JobState::Done),
            "unexpected state {:?}",
            out.state
        );
        // Cancelling a terminal job is a no-op reporting its state.
        assert_eq!(q.cancel(running.id), Some(out.state));
        assert!(q.cancel(999_999).is_none(), "unissued id");

        let s = q.stats();
        assert!(
            s.jobs_cancelled >= 1,
            "stats must count cancellations: {s:?}"
        );
        assert!(q.wait_idle(Duration::from_secs(60)), "cancelled jobs drain");
    }

    #[test]
    fn jobs_start_in_submission_order() {
        use crate::events::{Frame, Popped};
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            ..QueueOptions::default()
        });
        // Keep the only worker busy, then queue the fast jobs behind it.
        let (big_design, big_board) = slow_instance();
        let big = q.submit(big_design, big_board, JobConfig::default());
        while q.poll(big.id) == Some(JobState::Queued) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let outbox = q.make_outbox(64);
        q.subscribe(outbox.clone());
        let ids: Vec<u64> = (0..8)
            .map(|seed| {
                let (design, board) = small_instance(300 + seed);
                q.submit_watched(design, board, JobConfig::default(), None, &outbox, false)
                    .id
            })
            .collect();
        q.cancel(big.id);
        assert!(q.wait_idle(Duration::from_secs(60)));
        let mut started = Vec::new();
        while let Popped::Frame(frame) = outbox.pop(Some(Instant::now())) {
            if let Frame::Event(JobEvent::State {
                job,
                state: JobState::Running,
                ..
            }) = frame
            {
                started.push(job);
            }
        }
        assert_eq!(started, ids, "jobs must start in submission order");
    }

    #[test]
    fn deadline_job_terminates_in_the_structured_deadline_state() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            ..QueueOptions::default()
        });
        let (design, board) = slow_instance();
        let t = q.submit_with_deadline(
            design,
            board,
            JobConfig::default(),
            Some(Duration::from_millis(50)),
        );
        let out = q.wait(t.id, Duration::from_secs(60)).unwrap();
        assert_eq!(out.state, JobState::Deadline, "err: {:?}", out.error);
        assert!(out.error.as_deref().unwrap().contains("deadline"));
        let s = q.stats();
        assert_eq!(s.jobs_deadline, 1);
        assert_eq!(s.jobs_failed, 0, "a deadline is not a failure");
        // Deadline-shaped results are never cached.
        assert_eq!(s.cache_entries, 0);
        assert!(q.wait_idle(Duration::from_secs(5)));
    }

    #[test]
    fn terminations_and_events_flow_through_the_queue() {
        use crate::events::{Frame, Popped};
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            ..QueueOptions::default()
        });
        let outbox = q.make_outbox(64);
        let sub = q.subscribe(outbox.clone());
        let (design, board) = small_instance(11);
        let t = q.submit_watched(
            design.clone(),
            board.clone(),
            JobConfig::default(),
            None,
            &outbox,
            true,
        );
        let out = q.wait(t.id, Duration::from_secs(60)).unwrap();
        assert_eq!(out.state, JobState::Done);
        assert_eq!(out.termination, Some(Termination::Optimal));

        // An instant cache-hit completion is an optimal termination too.
        let t2 = q.submit(design, board, JobConfig::default());
        assert!(t2.cached);
        assert_eq!(
            q.outcome(t2.id).unwrap().termination,
            Some(Termination::Optimal)
        );

        // The watched job streamed its ordered lifecycle (events are
        // queued before wait() wakes) plus ≥1 progress frame.
        let mut states = Vec::new();
        let mut progress = 0;
        let deadline = Instant::now();
        while let Popped::Frame(frame) = outbox.pop(Some(deadline)) {
            match frame {
                Frame::Event(JobEvent::State { job, state, .. }) if job == t.id => {
                    states.push(state)
                }
                Frame::Event(JobEvent::Progress { job, .. }) if job == t.id => progress += 1,
                _ => {}
            }
        }
        assert_eq!(
            states,
            vec![JobState::Queued, JobState::Running, JobState::Done]
        );
        assert!(progress >= 1, "bridged progress frames expected");

        // Snapshots classify exactly like poll, carrying terminations.
        assert_eq!(
            q.state_snapshot(t.id),
            Some((JobState::Done, Some(Termination::Optimal)))
        );
        assert_eq!(q.state_snapshot(999_999), None, "unissued id");

        // After unsubscribing, nothing further is delivered.
        q.unsubscribe(sub);
        let (design3, board3) = small_instance(12);
        let t3 = q.submit(design3, board3, JobConfig::default());
        q.wait(t3.id, Duration::from_secs(60)).unwrap();
        assert!(
            matches!(outbox.pop(Some(Instant::now())), Popped::TimedOut),
            "unsubscribed outbox must stay silent"
        );
        assert_eq!(q.stats().events_dropped, 0);
    }

    #[test]
    fn unknown_job_polls_none() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            ..QueueOptions::default()
        });
        assert!(q.poll(999).is_none());
        assert!(q.outcome(999).is_none());
        assert!(q.poll(0).is_none(), "id 0 is never issued");
    }

    /// Steady submit-and-prune churn leaves each shard's record table the
    /// size its retention cap needs: it never doubles for the free slots
    /// pruning used up.
    #[test]
    fn record_tables_keep_their_size_under_churn() {
        let retain = 100;
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            retain_jobs: retain,
            ..QueueOptions::default()
        });
        let (design, board) = small_instance(5);
        let first = q.submit(design.clone(), board.clone(), JobConfig::default());
        q.wait(first.id, Duration::from_secs(60)).unwrap();
        for _ in 0..40 * retain * RECORD_SHARDS {
            assert!(
                q.submit(design.clone(), board.clone(), JobConfig::default())
                    .cached
            );
        }
        for shard in &q.inner.records {
            let shard = shard.state.lock();
            assert_eq!(shard.records.len(), retain);
            assert!(
                shard.records.capacity() < 2 * retain,
                "a table for {retain} records grew to {}",
                shard.records.capacity()
            );
        }
    }

    #[test]
    fn terminal_records_prune_to_count_cap() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            retain_jobs: 2,
            ..QueueOptions::default()
        });
        let (design, board) = small_instance(5);
        // One cold solve, then a pile of instant cache-hit completions.
        let first = q.submit(design.clone(), board.clone(), JobConfig::default());
        assert_eq!(
            q.wait(first.id, Duration::from_secs(60)).unwrap().state,
            JobState::Done
        );
        let mut ids = vec![first.id];
        for _ in 0..40 {
            let t = q.submit(design.clone(), board.clone(), JobConfig::default());
            assert!(t.cached);
            ids.push(t.id);
        }

        let s = q.stats();
        assert!(s.jobs_pruned > 0, "retention must have pruned something");
        // Per-shard bound: with 41 terminal records over 16 shards and
        // retain_jobs = 2, every shard is at (or under) its cap.
        let live: usize = ids
            .iter()
            .filter(|&&id| matches!(q.poll(id), Some(JobState::Done)))
            .count();
        assert!(
            live <= 2 * RECORD_SHARDS,
            "{live} live terminal records exceed the per-shard cap"
        );

        // The earliest id landed in a full shard long ago: structurally
        // expired, not unknown, not a hang.
        assert_eq!(q.poll(first.id), Some(JobState::Expired));
        let out = q.outcome(first.id).unwrap();
        assert_eq!(out.state, JobState::Expired);
        assert!(out.solution_json.is_none());
        assert!(out.error.as_deref().unwrap().contains("expired"));
        assert!(out.key.is_none());
        // wait() on an expired id returns the structured outcome instantly.
        let waited = q.wait(first.id, Duration::from_secs(5)).unwrap();
        assert_eq!(waited.state, JobState::Expired);
    }

    #[test]
    fn terminal_records_prune_by_age() {
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            retain_age: Some(Duration::from_millis(20)),
            ..QueueOptions::default()
        });
        let (design, board) = small_instance(6);
        let t = q.submit(design, board, JobConfig::default());
        assert_eq!(
            q.wait(t.id, Duration::from_secs(60)).unwrap().state,
            JobState::Done
        );
        std::thread::sleep(Duration::from_millis(40));
        let removed = q.sweep_retention();
        assert!(removed >= 1, "aged-out record must be sweepable");
        assert_eq!(q.poll(t.id), Some(JobState::Expired));
    }

    #[test]
    fn age_retention_runs_on_submit_without_anyone_calling_stats() {
        // A daemon that is never polled for stats must still honor
        // --retain-secs: the submit path prunes the record shard it
        // touches, and sequential ids rotate through every shard.
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            retain_age: Some(Duration::from_millis(20)),
            ..QueueOptions::default()
        });
        let (design, board) = small_instance(9);
        let first = q.submit(design.clone(), board.clone(), JobConfig::default());
        assert_eq!(
            q.wait(first.id, Duration::from_secs(60)).unwrap().state,
            JobState::Done
        );
        std::thread::sleep(Duration::from_millis(40));
        // One full lap of the record shards: some later submission lands
        // in `first`'s shard and its insert-time prune evicts the aged
        // record. (Cache hits, so these complete instantly.)
        for _ in 0..RECORD_SHARDS {
            q.submit(design.clone(), board.clone(), JobConfig::default());
        }
        assert_eq!(
            q.poll(first.id),
            Some(JobState::Expired),
            "aged-out record must be pruned by submission traffic alone"
        );
    }

    #[test]
    fn queued_records_survive_terminal_churn() {
        // Retention only ever removes *terminal* records: a cold job that
        // is queued or running while cached completions churn through its
        // record shard must still complete and be counted.
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            retain_jobs: 1,
            ..QueueOptions::default()
        });
        let (design_a, board_a) = small_instance(7);
        let (design_b, board_b) = small_instance(8);
        let a = q.submit(design_a.clone(), board_a.clone(), JobConfig::default());
        assert_eq!(
            q.wait(a.id, Duration::from_secs(60)).unwrap().state,
            JobState::Done
        );
        let b = q.submit(design_b, board_b, JobConfig::default());
        for _ in 0..20 {
            let t = q.submit(design_a.clone(), board_a.clone(), JobConfig::default());
            assert!(t.cached);
        }
        assert!(q.wait_idle(Duration::from_secs(60)));
        let s = q.stats();
        // Had retention pruned `b` while it was still queued, its eventual
        // completion would have found no record and never been counted.
        assert_eq!(s.jobs_completed, 22);
        assert_eq!(s.jobs_failed, 0);
        // `b` finished; with retain_jobs = 1 its record may itself have
        // been churned out afterwards, but only as a *terminal* record.
        let out = q.wait(b.id, Duration::from_secs(60)).unwrap();
        assert!(matches!(out.state, JobState::Done | JobState::Expired));
    }

    #[test]
    fn restarted_queue_serves_identical_bytes_from_disk() {
        let dir = std::env::temp_dir().join(format!(
            "gmm-queue-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (design, board) = small_instance(21);

        let cold = {
            let q = JobQueue::new(QueueOptions {
                workers: 1,
                persist_dir: Some(dir.clone()),
                ..QueueOptions::default()
            });
            let t = q.submit(design.clone(), board.clone(), JobConfig::default());
            let out = q.wait(t.id, Duration::from_secs(60)).unwrap();
            assert_eq!(out.state, JobState::Done);
            let s = q.stats();
            assert_eq!(s.disk_entries, 1, "optimal solve must persist");
            assert_eq!(s.disk_misses, 1, "the cold submission checked disk");
            out.solution_json.unwrap()
        };

        // A fresh queue on the same directory: memory is empty, so the
        // resubmission must come back from the disk tier — instantly
        // (ticket already Done) and byte-for-byte identical.
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            persist_dir: Some(dir.clone()),
            ..QueueOptions::default()
        });
        let t = q.submit(design, board, JobConfig::default());
        assert!(t.cached, "disk hit must complete the job at submit time");
        let out = q.outcome(t.id).unwrap();
        assert_eq!(out.solution_json.unwrap().solution_json, cold.solution_json);
        let s = q.stats();
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.disk_corrupt, 0);
        assert_eq!(s.cache_entries, 1, "the disk hit was promoted to memory");
        drop(q);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparsable_disk_payload_is_solved_again_not_cached() {
        let dir = std::env::temp_dir().join(format!(
            "gmm-queue-unparsable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (design, board) = small_instance(22);
        let key = instance_key(&design, &board, &JobConfig::default());
        // A record whose checksum holds but whose payload is not JSON.
        PersistStore::open(&dir)
            .unwrap()
            .put(key, 1.0, "{\"global\":[1,");
        let q = JobQueue::new(QueueOptions {
            workers: 1,
            persist_dir: Some(dir.clone()),
            ..QueueOptions::default()
        });
        let t = q.submit(design, board, JobConfig::default());
        assert_eq!(t.key, key, "the record sits under the job's key");
        assert!(!t.cached, "the damaged record must not answer the job");
        let out = q.wait(t.id, Duration::from_secs(60)).unwrap();
        assert_eq!(out.state, JobState::Done);
        let payload = out.solution_json.unwrap();
        assert!(serde_json::from_str::<serde_json::Value>(&payload.solution_json).is_ok());
        drop(q);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
