//! Cooperative solve control: cancellation tokens and progress observers.
//!
//! Long-running solves need two things a bare `solve_mip` call cannot
//! provide: a way for *another thread* to stop them mid-tree, and a way
//! for callers to observe progress (phases, incumbents, node counts)
//! without polling. Both are deliberately cheap on the hot path:
//!
//! * [`CancelToken`] is one shared atomic flag. The branch-and-bound
//!   drivers load it once per node and the simplex engine polls it every
//!   few dozen pivots alongside the existing deadline check — no
//!   syscalls, no locks, no allocation per poll.
//! * [`ProgressObserver`] is notified only on *state changes* (phase
//!   transitions, new incumbents) plus a low-frequency node-count tick
//!   (every [`NODE_TICK`] nodes), so a no-op observer costs a predicted
//!   branch per node and nothing per pivot.
//!
//! [`SolveControl`] bundles both and rides inside
//! [`crate::branch::MipOptions`]; higher layers (`gmm-core`'s pipeline,
//! the `gmm-api` facade, the mapsrv workers) thread one `SolveControl`
//! end to end so a single token cancels every LP under a mapping job.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How often (in explored nodes) the branch-and-bound drivers emit a
/// [`ProgressObserver::on_nodes`] tick.
pub const NODE_TICK: u64 = 64;

/// A shared, clonable cancellation flag.
///
/// Cloning is cheap (one `Arc` bump); all clones observe the same flag.
/// Once cancelled, a token stays cancelled forever.
///
/// ```
/// use gmm_ilp::control::CancelToken;
///
/// let token = CancelToken::new();
/// let seen_by_solver = token.clone();
/// assert!(!seen_by_solver.is_cancelled());
/// token.cancel();
/// assert!(seen_by_solver.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested. One atomic load.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Receiver for solver progress events.
///
/// Implementations must be cheap and non-blocking: the serial driver
/// calls them inline and the parallel driver calls them from worker
/// threads (hence `Send + Sync`). All methods default to no-ops so sinks
/// implement only what they need.
pub trait ProgressObserver: Send + Sync {
    /// A named phase began (`"preprocess"`, `"global"`, `"detailed"`,
    /// `"retry"`, …).
    fn on_phase(&self, _phase: &'static str) {}

    /// A new best integer-feasible solution was accepted.
    /// `objective` is in the user's objective sense.
    fn on_incumbent(&self, _objective: f64, _nodes: u64) {}

    /// Low-frequency heartbeat: `nodes` explored so far (emitted every
    /// [`NODE_TICK`] nodes, not every node).
    fn on_nodes(&self, _nodes: u64) {}
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ProgressObserver for NullObserver {}

/// A thread-safe observer that records every event; the standard sink
/// for tests and for collecting a progress trail in memory.
///
/// ```
/// use gmm_ilp::control::{CollectingObserver, ProgressObserver};
///
/// let obs = CollectingObserver::default();
/// obs.on_phase("global");
/// obs.on_incumbent(42.0, 3);
/// assert_eq!(obs.phases(), vec!["global"]);
/// assert_eq!(obs.incumbents().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct CollectingObserver {
    phases: parking_lot::Mutex<Vec<&'static str>>,
    incumbents: parking_lot::Mutex<Vec<(f64, u64)>>,
    node_ticks: parking_lot::Mutex<Vec<u64>>,
}

impl CollectingObserver {
    pub fn phases(&self) -> Vec<&'static str> {
        self.phases.lock().clone()
    }
    pub fn incumbents(&self) -> Vec<(f64, u64)> {
        self.incumbents.lock().clone()
    }
    pub fn node_ticks(&self) -> Vec<u64> {
        self.node_ticks.lock().clone()
    }
}

impl ProgressObserver for CollectingObserver {
    fn on_phase(&self, phase: &'static str) {
        self.phases.lock().push(phase);
    }
    fn on_incumbent(&self, objective: f64, nodes: u64) {
        self.incumbents.lock().push((objective, nodes));
    }
    fn on_nodes(&self, nodes: u64) {
        self.node_ticks.lock().push(nodes);
    }
}

/// Cancellation + progress bundle threaded through a whole solve.
///
/// `Default` is the zero-cost configuration: no token, no observer.
/// Rides inside [`crate::branch::MipOptions`], so every entry point that
/// accepts solver options accepts control too.
#[derive(Clone, Default)]
pub struct SolveControl {
    /// Cooperative cancellation flag; `None` = not cancellable.
    pub cancel: Option<CancelToken>,
    /// Progress sink; `None` = silent.
    pub observer: Option<Arc<dyn ProgressObserver>>,
}

impl std::fmt::Debug for SolveControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveControl")
            .field("cancel", &self.cancel)
            .field(
                "observer",
                &self.observer.as_ref().map(|_| "dyn ProgressObserver"),
            )
            .finish()
    }
}

impl SolveControl {
    /// A control with just a cancellation token.
    pub fn with_cancel(token: CancelToken) -> SolveControl {
        SolveControl {
            cancel: Some(token),
            observer: None,
        }
    }

    /// One atomic load (or a constant `false` with no token).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    pub fn phase(&self, phase: &'static str) {
        if let Some(obs) = &self.observer {
            obs.on_phase(phase);
        }
    }

    pub fn incumbent(&self, objective: f64, nodes: u64) {
        if let Some(obs) = &self.observer {
            obs.on_incumbent(objective, nodes);
        }
    }

    /// Emit the node heartbeat when `nodes` crosses a [`NODE_TICK`]
    /// boundary.
    pub fn node_tick(&self, nodes: u64) {
        if nodes.is_multiple_of(NODE_TICK) {
            if let Some(obs) = &self.observer {
                obs.on_nodes(nodes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_and_sticky() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn default_control_is_inert() {
        let c = SolveControl::default();
        assert!(!c.is_cancelled());
        // No observer: these must be no-ops, not panics.
        c.phase("global");
        c.incumbent(1.0, 1);
        c.node_tick(NODE_TICK);
    }

    #[test]
    fn node_tick_fires_on_boundaries_only() {
        let obs = Arc::new(CollectingObserver::default());
        let c = SolveControl {
            cancel: None,
            observer: Some(obs.clone()),
        };
        for n in 1..=(2 * NODE_TICK) {
            c.node_tick(n);
        }
        assert_eq!(obs.node_ticks(), vec![NODE_TICK, 2 * NODE_TICK]);
    }

    #[test]
    fn control_debug_does_not_require_observer_debug() {
        let c = SolveControl {
            cancel: Some(CancelToken::new()),
            observer: Some(Arc::new(NullObserver)),
        };
        let text = format!("{c:?}");
        assert!(text.contains("SolveControl"));
    }
}
