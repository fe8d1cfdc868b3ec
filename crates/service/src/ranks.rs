//! The service layer's lock-rank table.
//!
//! Every long-lived `parking_lot::Mutex` in this crate is built with
//! [`parking_lot::Mutex::with_rank`], enrolling it in one workspace-wide
//! total order that debug builds enforce on every acquire: a thread may
//! only take a ranked lock whose rank is **strictly greater** than the
//! highest rank it already holds. The order below encodes the nesting
//! directions the code actually uses:
//!
//! | rank | lock | may be held while taking |
//! |------|------|--------------------------|
//! | [`WATCHERS`] | `queue::Inner::watchers` registry | (snapshotted, not nested) |
//! | [`OUTBOX`] | `events::Outbox` state | watch-snapshot → `RECORD_SHARD` |
//! | [`RECORD_SHARD`] | per-shard job records | cache/persist/work on submit |
//! | [`CACHE_SHARD`] | `cache::SolutionCache` shards | spill hook → `PERSIST` |
//! | [`PERSIST`] | `persist::PersistStore` inner | — |
//! | [`WORK`] | `queue` job list (workers park on it) | — |
//! | [`IDLE`] | `queue` idle handshake | — |
//! | [`WORKER_HANDLES`] | `queue` worker join handles | — |
//!
//! `tests/lock_rank.rs` pins this table: it drives a queue + cache +
//! persist + watch workload and asserts the detector observed zero
//! violations.

/// `queue::Inner::watchers` — the watch-outbox registry.
pub const WATCHERS: u32 = 20;
/// `events::Outbox` state (one per watch subscription).
pub const OUTBOX: u32 = 30;
/// `queue` per-shard job-record maps (all `RECORD_SHARDS` share it:
/// shard locks are never nested with each other).
pub const RECORD_SHARD: u32 = 40;
/// `cache::SolutionCache` shards (never nested with each other).
pub const CACHE_SHARD: u32 = 50;
/// `persist::PersistStore` segment-log state.
pub const PERSIST: u32 = 60;
/// `queue` list of jobs waiting for a worker; its condvar parks idle
/// workers.
pub const WORK: u32 = 70;
/// `queue` idle-tracking condvar handshake lock.
pub const IDLE: u32 = 72;
/// `queue` worker `JoinHandle` vector (shutdown only).
pub const WORKER_HANDLES: u32 = 75;
