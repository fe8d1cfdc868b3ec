//! `gmm-check`: machine verification for the workspace's concurrency
//! and protocol invariants.
//!
//! Three connected layers:
//!
//! 1. [`sched`] + [`explore`] — a loom-style deterministic model
//!    checker. The compat `parking_lot` stand-in exposes schedule
//!    points through `gmm-checkpoint` (debug builds only); the
//!    explorer runs small closed models of the real service types
//!    under exhaustive DFS (bounded preemptions) or seeded-random
//!    interleavings and asserts the invariants the wall-clock soaks
//!    only sample.
//! 2. The runtime lock-rank + deadlock detector lives in the compat
//!    `parking_lot` crate itself (see `parking_lot::detect`); this
//!    crate's tests plant an ABBA deadlock and a rank inversion to
//!    prove the detector catches both.
//! 3. [`lint`] — a hand-rolled source scanner (offline, no
//!    syn/rustc) enforcing repo rules over the workspace tree, with an
//!    allowlist file for audited exceptions. Surfaced as `gmm lint`.
//!
//! [`models`] holds the closed models of `SolutionCache`, `Outbox`,
//! and the job queue's dispatch and claim protocol plus the
//! deliberately-buggy models used to test the checker itself.

pub mod explore;
pub mod lint;
pub mod models;
pub mod sched;
