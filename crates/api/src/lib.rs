//! # gmm-api — the unified solve-session facade
//!
//! One production-grade entry point over the whole mapping pipeline
//! (pre-process → global ILP → detailed mapping, paper §4.1–4.2):
//!
//! * [`MapRequest`] — a builder-style request: design + board +
//!   strategy + cost weights + `deadline`/`node_budget` +
//!   [`CancelToken`] + [`ProgressObserver`];
//! * [`MapReport`] — the structured result: a [`Termination`] reason
//!   (`Optimal | Feasible | DeadlineExceeded | Cancelled | Infeasible`),
//!   the mapping when one exists, timing, and node/iteration/warm-start
//!   counters — populated on *every* exit path;
//! * [`ApiError`] — the single error type for everything that is a
//!   failure rather than an answer (engine breakage, I/O, protocol).
//!
//! The CLI `solve`/`batch` commands, the mapsrv job-queue workers, and
//! in-process library callers all construct and execute solves through
//! this facade, so deadlines, cancellation, and progress behave
//! identically no matter how a solve was started.
//!
//! ## Quickstart
//!
//! ```
//! use gmm_api::{MapRequest, Termination};
//! use gmm_design::DesignBuilder;
//!
//! let mut b = DesignBuilder::new("quick");
//! b.segment("coeffs", 128, 12).unwrap();
//! b.segment("frame", 4096, 8).unwrap();
//! let design = b.build().unwrap();
//! let board = gmm_arch::Board::prototyping("XCV300", 2).unwrap();
//!
//! let report = MapRequest::new(design, board)
//!     .deadline(std::time::Duration::from_secs(30))
//!     .execute()
//!     .unwrap();
//!
//! assert_eq!(report.termination, Termination::Optimal);
//! let outcome = report.outcome.unwrap();
//! assert_eq!(outcome.global.type_of.len(), 2);
//! ```
//!
//! ## Deadlines and cancellation
//!
//! Both are *cooperative*: the branch-and-bound drivers poll once per
//! node and the simplex engine every few dozen pivots, so a session
//! stops within milliseconds of the deadline or `cancel()` call without
//! any per-iteration syscalls. A deadline that fires mid-tree returns
//! `Termination::DeadlineExceeded` with whatever incumbent existed —
//! a *partial but well-formed* report, never a hang or a panic.

mod error;
mod progress;
mod report;
mod request;

pub use error::ApiError;
pub use progress::{ForwardProgress, LatestProgress, ProgressEvent, StderrProgress};
pub use report::{MapReport, Termination};
pub use request::MapRequest;

/// The heuristic/ILP solve-mode selector, re-exported so api users never
/// need a direct `gmm-heur` dependency.
pub use gmm_heur::SolveMode;

// The control primitives are defined next to the solver hot loops that
// poll them; re-exported here so facade users need one import path.
pub use gmm_ilp::control::{CancelToken, NullObserver, ProgressObserver};

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_design::DesignBuilder;
    use std::time::Duration;

    fn tiny() -> (gmm_design::Design, gmm_arch::Board) {
        let mut b = DesignBuilder::new("t");
        b.segment("a", 128, 8).unwrap();
        b.segment("b", 512, 4).unwrap();
        (
            b.build().unwrap(),
            gmm_arch::Board::prototyping("XCV300", 2).unwrap(),
        )
    }

    #[test]
    fn optimal_report_carries_counters_and_objective() {
        let (design, board) = tiny();
        let report = MapRequest::new(design, board).execute().unwrap();
        assert_eq!(report.termination, Termination::Optimal);
        assert!(report.outcome.is_some());
        assert!(report.objective.is_some());
        assert!(report.nodes_explored >= 1);
        assert!(report.lp_iterations >= 1);
        assert!(report.total_time >= report.global_time);
    }

    #[test]
    fn pre_cancelled_request_terminates_cancelled() {
        let (design, board) = tiny();
        let token = CancelToken::new();
        token.cancel();
        let report = MapRequest::new(design, board)
            .cancel_token(token)
            .execute()
            .unwrap();
        assert_eq!(report.termination, Termination::Cancelled);
        assert!(report.outcome.is_none());
    }

    #[test]
    fn zero_deadline_terminates_deadline_exceeded() {
        let (design, board) = tiny();
        let report = MapRequest::new(design, board)
            .deadline(Duration::ZERO)
            .execute()
            .unwrap();
        assert_eq!(report.termination, Termination::DeadlineExceeded);
        assert!(report.outcome.is_none());
        // Partial but well-formed: counters and timings are present.
        assert_eq!(report.nodes_explored, 0);
    }

    #[test]
    fn infeasible_is_a_termination_not_an_error() {
        use gmm_workloads::{random_design, RandomDesignSpec};
        // 40 huge segments cannot fit the small prototyping board.
        let design = random_design(&RandomDesignSpec {
            segments: 40,
            depth: (60_000, 65_000),
            width: (30, 32),
            seed: 3,
            ..RandomDesignSpec::default()
        });
        let board = gmm_arch::Board::prototyping("XCV300", 1).unwrap();
        let report = MapRequest::new(design, board).execute().unwrap();
        assert_eq!(report.termination, Termination::Infeasible);
        assert!(report.outcome.is_none());
    }

    #[test]
    fn observer_hears_pipeline_phases() {
        use gmm_ilp::control::CollectingObserver;
        use std::sync::Arc;
        let obs = Arc::new(CollectingObserver::default());
        let (design, board) = tiny();
        let report = MapRequest::new(design, board)
            .observer(obs.clone())
            .execute()
            .unwrap();
        assert_eq!(report.termination, Termination::Optimal);
        let phases = obs.phases();
        assert!(phases.contains(&"preprocess"), "{phases:?}");
        assert!(phases.contains(&"global"), "{phases:?}");
        assert!(phases.contains(&"detailed"), "{phases:?}");
    }

    #[test]
    fn mid_solve_cancellation_stops_promptly() {
        use gmm_workloads::slow_table3_instance;
        use std::time::Instant;
        // Second-scale instance, so the cancel lands mid-solve.
        let (design, board) = slow_table3_instance();
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                token.cancel();
            })
        };
        let t0 = Instant::now();
        let report = MapRequest::new(design, board)
            .cancel_token(token)
            .execute()
            .unwrap();
        let elapsed = t0.elapsed();
        canceller.join().unwrap();
        // Either the instance solved optimally inside 150ms (fast box) or
        // the cancellation must have landed promptly.
        if report.termination != Termination::Optimal {
            assert_eq!(report.termination, Termination::Cancelled);
            assert!(
                elapsed < Duration::from_secs(3),
                "cancellation took {elapsed:?}"
            );
        }
    }

    #[test]
    fn deadline_bounded_table3_solve_returns_within_slack() {
        use gmm_workloads::slow_table3_instance;
        use std::time::Instant;
        let (design, board) = slow_table3_instance();
        let deadline = Duration::from_millis(300);
        let t0 = Instant::now();
        let report = MapRequest::new(design, board)
            .deadline(deadline)
            .execute()
            .unwrap();
        let elapsed = t0.elapsed();
        match report.termination {
            // Well-formed partial report, delivered promptly (the
            // acceptance budget is deadline + 100ms; allow CI jitter).
            Termination::DeadlineExceeded => {
                assert!(
                    elapsed <= deadline + Duration::from_millis(100),
                    "deadline overshoot: {elapsed:?} vs {deadline:?}"
                );
            }
            // A fast machine may finish the global phase in time.
            Termination::Optimal | Termination::Feasible => {}
            other => panic!("unexpected termination {other:?}"),
        }
        assert!(report.total_time >= report.global_time);
    }
}
