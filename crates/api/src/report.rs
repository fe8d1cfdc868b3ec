//! The structured result of one solve session.

use std::time::Duration;

use gmm_core::{MapStats, MappingOutcome};
use gmm_ilp::error::{MipStatus, StopReason};

/// Why a solve session ended. The classification every entry point
/// (CLI, mapsrv, in-process callers) shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The global ILP was solved to proven optimality and detailed
    /// mapping succeeded.
    Optimal,
    /// A mapping was produced, but optimality of the global assignment
    /// was not proven (a node budget or gap limit intervened).
    Feasible,
    /// The wall-clock deadline expired. The report may still carry a
    /// mapping built from the best incumbent found in time.
    DeadlineExceeded,
    /// The request's [`gmm_ilp::control::CancelToken`] was cancelled.
    Cancelled,
    /// The board provably cannot host the design.
    Infeasible,
}

impl Termination {
    /// Stable lowercase wire/display token.
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Optimal => "optimal",
            Termination::Feasible => "feasible",
            Termination::DeadlineExceeded => "deadline-exceeded",
            Termination::Cancelled => "cancelled",
            Termination::Infeasible => "infeasible",
        }
    }

    /// Parse a [`Termination::as_str`] token back; the wire direction of
    /// the same mapping (protocol-v2 state events carry these tokens).
    pub fn from_name(s: &str) -> Option<Termination> {
        match s {
            "optimal" => Some(Termination::Optimal),
            "feasible" => Some(Termination::Feasible),
            "deadline-exceeded" => Some(Termination::DeadlineExceeded),
            "cancelled" => Some(Termination::Cancelled),
            "infeasible" => Some(Termination::Infeasible),
            _ => None,
        }
    }

    /// Whether the session produced a usable mapping *guarantee* — note
    /// that [`Termination::DeadlineExceeded`] reports may still carry a
    /// best-effort mapping (check [`MapReport::outcome`]).
    pub fn is_success(self) -> bool {
        matches!(self, Termination::Optimal | Termination::Feasible)
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Structured report of one executed [`crate::MapRequest`].
///
/// Every exit path produces one: an optimal solve, a deadline that fired
/// mid-tree, a cancellation — the counters and timings are always
/// populated, so monitoring and benchmarking read one shape.
///
/// `#[non_exhaustive]`: read fields freely, construct via the facade
/// (or [`MapReport::default`] in tests). Defaults are the empty report:
/// `Infeasible`, no outcome, zeroed counters.
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct MapReport {
    /// Why the session ended.
    pub termination: Termination,
    /// The mapping, when one was produced (always for
    /// `Optimal`/`Feasible`; best-effort for `DeadlineExceeded`).
    pub outcome: Option<MappingOutcome>,
    /// Human-readable detail for [`Termination::Infeasible`] — e.g.
    /// *which* segments fit no bank type — so entry points can report
    /// more than the bare classification.
    pub diagnostic: Option<String>,
    /// Weighted objective of `outcome` under the request's cost weights.
    pub objective: Option<f64>,
    /// Global/detailed retry-loop iterations used (paper §4.1).
    pub retries: usize,
    /// Wall time inside the global ILP solves.
    pub global_time: Duration,
    /// Wall time inside detailed mapping.
    pub detailed_time: Duration,
    /// Wall time of the whole session.
    pub total_time: Duration,
    /// Branch-and-bound nodes explored across all global solves.
    pub nodes_explored: u64,
    /// Simplex pivots across all global solves.
    pub lp_iterations: u64,
    /// Nodes that accepted a parent warm-start basis (skipped phase 1).
    pub warm_started_nodes: u64,
    /// Basis refactorizations across all global solves.
    pub refactorizations: u64,
    /// Worst eta-file fill-in any single node LP reached.
    pub eta_nnz_peak: u64,
    /// Global solve attempts whose warm-start hint (see
    /// [`crate::MapRequest::warm_hint`]) was accepted as the starting
    /// incumbent. Zero when no hint was offered or it did not fit.
    pub incumbent_seeded: u64,
    /// Weighted objective of the greedy heuristic's assignment, when one
    /// ran (`Heuristic` and `Portfolio` solve modes) and found a feasible
    /// assignment. `None` under `Ilp` mode or when the greedy gave up.
    pub heuristic_objective: Option<f64>,
    /// `Portfolio` only: the ILP proved optimality *and* the optimum
    /// equals the heuristic objective — the greedy answer was already
    /// optimal and the ILP run served purely as the proof.
    pub proved_optimal_from_heuristic: bool,
}

/// The default termination is the empty report's: a session that never
/// produced anything. Exists so `MapReport::default()` works in tests
/// and stubs; real reports always come from `MapRequest::execute`.
impl Default for Termination {
    fn default() -> Self {
        Termination::Infeasible
    }
}

impl MapReport {
    /// Classify a finished pipeline run's stats (shared by every
    /// success path).
    pub(crate) fn success_termination(stats: &MapStats) -> Termination {
        match stats.stop_reason {
            Some(StopReason::Deadline) => Termination::DeadlineExceeded,
            Some(StopReason::Cancelled) => Termination::Cancelled,
            Some(StopReason::NodeLimit) => Termination::Feasible,
            None => match stats.global_status {
                Some(MipStatus::Optimal) | None => Termination::Optimal,
                _ => Termination::Feasible,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_report_is_the_empty_report() {
        let r = MapReport::default();
        assert_eq!(r.termination, Termination::Infeasible);
        assert!(r.outcome.is_none());
        assert_eq!(r.nodes_explored, 0);
    }

    #[test]
    fn termination_tokens_are_stable() {
        for (t, s) in [
            (Termination::Optimal, "optimal"),
            (Termination::Feasible, "feasible"),
            (Termination::DeadlineExceeded, "deadline-exceeded"),
            (Termination::Cancelled, "cancelled"),
            (Termination::Infeasible, "infeasible"),
        ] {
            assert_eq!(t.as_str(), s);
            assert_eq!(format!("{t}"), s);
            assert_eq!(
                Termination::from_name(s),
                Some(t),
                "token {s} must parse back"
            );
        }
        assert_eq!(Termination::from_name("frobnicated"), None);
        assert!(Termination::Optimal.is_success());
        assert!(!Termination::Cancelled.is_success());
    }
}
