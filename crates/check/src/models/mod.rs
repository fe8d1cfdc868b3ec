//! Closed models of the service layer's concurrent types.
//!
//! Each model builds a fresh, small instance of the *real* type under
//! test (no mocks), runs two-to-three threads against it, and asserts
//! in a post-run check the invariants the wall-clock soaks can only
//! sample — under every interleaving the explorer enumerates.
//!
//! [`bugs`] holds deliberately racy models (a lost wakeup and an ABBA
//! deadlock) used by this crate's tests to prove the checker itself
//! still catches what it exists to catch.

pub mod bugs;
pub mod cache;
pub mod outbox;
pub mod queue;

use crate::explore::ModelRun;

/// A registry entry: a model name plus its builder.
pub struct NamedModel {
    pub name: &'static str,
    /// What the model covers, for `gmm check` output.
    pub covers: &'static str,
    pub build: fn() -> ModelRun,
}

/// The clean models run by `gmm check` and CI: all must hold under
/// every explored interleaving.
pub fn clean_models() -> Vec<NamedModel> {
    vec![
        NamedModel {
            name: "cache",
            covers: "SolutionCache insert/evict/spill races, counter conservation",
            build: cache::build,
        },
        NamedModel {
            name: "outbox",
            covers: "Outbox fan-out vs retire: monotonic states, terminal exactly once",
            build: outbox::build,
        },
        NamedModel {
            name: "queue",
            covers: "job-queue FIFO list + condvar park, cancel/claim/finish, drain on shutdown",
            build: queue::build,
        },
    ]
}
