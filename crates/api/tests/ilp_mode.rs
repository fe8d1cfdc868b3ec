//! The ILP-mode contract. `SolveMode::Ilp` runs the greedy heuristic only
//! to start the root LP at its vertex, so on the outside it still looks
//! like the exact pipeline alone: no seed, no heuristic objective, the
//! same bytes on every run, and the same optimum as the portfolio.

use gmm_api::{MapReport, MapRequest, SolveMode, Termination};
use gmm_workloads::{stream_instances, StreamInstance, StreamSpec};

/// 50 instances of the size the `solve` benchmark streams.
fn instances() -> impl Iterator<Item = StreamInstance> {
    stream_instances(StreamSpec {
        segments: (24, 48),
        seed: 0x11f0,
    })
    .take(50)
}

fn execute(inst: &StreamInstance, mode: SolveMode) -> MapReport {
    let report = MapRequest::new(inst.design.clone(), inst.board.clone())
        .solve_mode(mode)
        .execute()
        .expect("stream instances solve");
    assert_eq!(
        report.termination,
        Termination::Optimal,
        "{} {mode}",
        inst.name
    );
    report
}

/// The mapping's serialized bytes.
fn payload(report: &MapReport) -> String {
    let outcome = report
        .outcome
        .as_ref()
        .expect("optimal report has an outcome");
    serde_json::to_string(&outcome.global).unwrap()
        + &serde_json::to_string(&outcome.detailed).unwrap()
}

#[test]
fn ilp_mode_shows_no_seed_and_repeats_byte_identically() {
    for inst in instances() {
        let first = execute(&inst, SolveMode::Ilp);
        assert_eq!(first.incumbent_seeded, 0, "{}", inst.name);
        assert_eq!(first.heuristic_objective, None, "{}", inst.name);
        assert!(!first.proved_optimal_from_heuristic, "{}", inst.name);
        let again = execute(&inst, SolveMode::Ilp);
        assert_eq!(payload(&again), payload(&first), "{}", inst.name);
    }
}

#[test]
fn ilp_and_portfolio_objectives_agree() {
    for inst in instances() {
        let ilp = execute(&inst, SolveMode::Ilp).objective.unwrap();
        let portfolio = execute(&inst, SolveMode::Portfolio).objective.unwrap();
        assert!(
            (ilp - portfolio).abs() <= 1e-9 * ilp.abs().max(1.0),
            "{}: ilp {ilp} vs portfolio {portfolio}",
            inst.name
        );
    }
}
