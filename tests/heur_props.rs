//! Property tests for the gmm-heur greedy mapper and the solve-mode
//! portfolio.
//!
//! Three contracts are pinned down:
//!
//! * **feasibility** — every greedy mapping passes the shared detailed
//!   validator and replays cleanly in the `gmm-sim` access simulator;
//! * **bounding** — the greedy objective is an upper bound: never below
//!   the ILP's proven optimum on the same instance;
//! * **transparency** — the portfolio changes *how fast* a solve
//!   converges, never *what* an `Optimal` solve returns: payloads stay
//!   byte-identical to ILP-only solves, and a deadline'd portfolio solve
//!   degrades to `Feasible` carrying the heuristic incumbent instead of
//!   `DeadlineExceeded` empty-handed.

use std::time::Duration;

use gmm_api::{MapRequest, Termination};
use gmm_arch::Board;
use gmm_heur::{greedy_map, greedy_solve, HeurOptions, SolveMode};
use gmm_service::{canonical_json, JobConfig, JobQueue, JobSolution, JobState, QueueOptions};
use gmm_sim::{simulate_mapping, Trace};
use gmm_workloads::{
    random_design, slow_table3_instance, stream_instances, RandomDesignSpec, StreamSpec,
};

fn instance(seed: u64, segments: usize) -> (gmm_design::Design, Board) {
    let design = random_design(&RandomDesignSpec {
        segments,
        depth: (16, 512),
        width: (1, 8),
        seed,
        ..RandomDesignSpec::default()
    });
    (design, Board::prototyping("XCV300", 2).unwrap())
}

fn payload(report: &gmm_api::MapReport) -> String {
    let outcome = report.outcome.as_ref().expect("report has an outcome");
    canonical_json(&JobSolution {
        global: outcome.global.clone(),
        detailed: outcome.detailed.clone(),
    })
}

#[test]
fn greedy_mappings_validate_and_replay_in_the_simulator() {
    for seed in [1u64, 12, 23, 34, 45, 56] {
        let (design, board) = instance(seed, 8);
        let m = greedy_map(&design, &board, &HeurOptions::new())
            .unwrap_or_else(|e| panic!("seed {seed}: greedy must map this instance: {e}"));
        let violations = gmm_core::validate_detailed(&design, &board, &m.detailed);
        assert!(
            violations.is_empty(),
            "seed {seed}: greedy mapping violates the shared validator: {violations:?}"
        );
        // Replay a deterministic random trace through the placed
        // fragments: every access must decode to exactly one instance.
        let trace = Trace::random(&design, 256, seed);
        simulate_mapping(&design, &board, &m.detailed, &trace)
            .unwrap_or_else(|e| panic!("seed {seed}: greedy mapping does not replay: {e}"));
    }
}

#[test]
fn greedy_objective_never_beats_the_proven_optimum() {
    for seed in [2u64, 13, 24, 35, 46] {
        let (design, board) = instance(seed, 8);
        let sol = greedy_solve(&design, &board, &HeurOptions::new())
            .unwrap_or_else(|e| panic!("seed {seed}: greedy must solve: {e}"));
        let ilp = MapRequest::new(design, board).execute().expect("ilp solve");
        assert_eq!(ilp.termination, Termination::Optimal, "seed {seed}");
        let optimal = ilp.objective.expect("optimal report has an objective");
        assert!(
            sol.objective >= optimal - 1e-6 * optimal.abs().max(1.0),
            "seed {seed}: greedy objective {} below the proven optimum {optimal}",
            sol.objective
        );
    }
}

#[test]
fn portfolio_optimal_payloads_are_byte_identical_to_ilp() {
    for inst in stream_instances(StreamSpec::default()).take(6) {
        let ilp = MapRequest::new(inst.design.clone(), inst.board.clone())
            .solve_mode(SolveMode::Ilp)
            .execute()
            .expect("ilp solve");
        let portfolio = MapRequest::new(inst.design.clone(), inst.board.clone())
            .solve_mode(SolveMode::Portfolio)
            .execute()
            .expect("portfolio solve");
        assert_eq!(ilp.termination, Termination::Optimal, "{}", inst.name);
        assert_eq!(portfolio.termination, Termination::Optimal, "{}", inst.name);
        assert!(
            portfolio.heuristic_objective.is_some(),
            "{}: the portfolio must record its greedy objective",
            inst.name
        );
        assert!(
            portfolio.incumbent_seeded >= 1,
            "{}: a feasible greedy solution must seed the incumbent",
            inst.name
        );
        assert_eq!(portfolio.objective, ilp.objective, "{}", inst.name);
        assert_eq!(
            payload(&portfolio),
            payload(&ilp),
            "{}: the portfolio changed the optimal payload bytes",
            inst.name
        );
    }
}

#[test]
fn heuristic_mode_is_feasible_and_validates() {
    for inst in stream_instances(StreamSpec::default()).take(4) {
        let report = MapRequest::new(inst.design.clone(), inst.board.clone())
            .solve_mode(SolveMode::Heuristic)
            .execute()
            .expect("heuristic solve");
        assert_eq!(report.termination, Termination::Feasible, "{}", inst.name);
        let outcome = report
            .outcome
            .as_ref()
            .expect("feasible report has an outcome");
        assert!(
            gmm_core::validate_detailed(&inst.design, &inst.board, &outcome.detailed).is_empty(),
            "{}: heuristic outcome must validate",
            inst.name
        );
        assert_eq!(
            report.heuristic_objective, report.objective,
            "{}",
            inst.name
        );
    }
}

#[test]
fn deadlined_portfolio_degrades_to_feasible_with_the_heuristic_incumbent() {
    // The scaled point-9 instance runs for ~a second; a 1 ms deadline
    // fires long before branch-and-bound proves anything.
    let (design, board) = slow_table3_instance();
    let tight = Duration::from_millis(1);

    let portfolio = MapRequest::new(design.clone(), board.clone())
        .solve_mode(SolveMode::Portfolio)
        .deadline(tight)
        .execute()
        .expect("portfolio solve");
    assert_eq!(
        portfolio.termination,
        Termination::Feasible,
        "a deadline'd portfolio solve must fall back to the heuristic incumbent"
    );
    let h = portfolio
        .heuristic_objective
        .expect("the fallback records the greedy objective");
    let outcome = portfolio
        .outcome
        .as_ref()
        .expect("feasible carries a mapping");
    assert!(
        gmm_core::validate_detailed(&design, &board, &outcome.detailed).is_empty(),
        "the deadline fallback must still validate"
    );
    let delivered = portfolio.objective.expect("feasible reports its objective");
    assert!(
        delivered <= h + 1e-6 * h.abs().max(1.0),
        "the delivered incumbent ({delivered}) must be at least as good as the seed ({h})"
    );

    // Reference: ILP-only under the same deadline has nothing to offer.
    let ilp = MapRequest::new(design, board)
        .solve_mode(SolveMode::Ilp)
        .deadline(tight)
        .execute()
        .expect("ilp solve");
    assert_eq!(ilp.termination, Termination::DeadlineExceeded);
}

#[test]
fn portfolio_stream_seeds_incumbents_through_the_queue() {
    let queue = JobQueue::new({
        let mut o = QueueOptions::default();
        o.workers = 2;
        o
    });
    let config = JobConfig {
        solve_mode: SolveMode::Portfolio,
        ..JobConfig::default()
    };
    let tickets: Vec<_> = stream_instances(StreamSpec::default())
        .take(8)
        .map(|inst| queue.submit(inst.design, inst.board, config.clone()))
        .collect();
    for t in &tickets {
        let out = queue.wait(t.id, Duration::from_secs(120)).unwrap();
        assert_eq!(out.state, JobState::Done);
    }
    let s = queue.stats();
    assert_eq!(
        s.heuristic_solved, 8,
        "every stream solve is greedy-mappable: {s:?}"
    );
    assert!(
        s.heuristic_seeded > 0,
        "the portfolio fast path never engaged on the stream workload: {s:?}"
    );
    assert_eq!(s.heuristic_infeasible, 0, "{s:?}");
    queue.shutdown();
}
