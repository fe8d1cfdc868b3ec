//! The builder-style solve request.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gmm_arch::Board;
use gmm_core::pipeline::{DetailedStrategy, MapRun, Mapper, MapperOptions, MappingOutcome};
use gmm_core::{CostMatrix, CostWeights, MapError, PreTable, SolverBackend};
use gmm_design::Design;
use gmm_heur::{
    greedy_map_with, greedy_solve_with, HeurInfeasible, HeurOptions, HeurSolution, SolveMode,
};
use gmm_ilp::control::{CancelToken, ProgressObserver};
use gmm_ilp::{BasisBackend, PricingRule};

use crate::error::ApiError;
use crate::report::{MapReport, Termination};

/// One fully-specified solve session: design + board + strategy + cost
/// weights + limits + cancellation + progress, executed with
/// [`MapRequest::execute`].
///
/// This is the single entry point the CLI, the mapsrv workers, and
/// in-process callers all share. Build it fluently; every knob has a
/// sensible default (serial branch-and-bound, sparse-LU basis,
/// constructive detailed mapper, 8 retries, no limits):
///
/// ```
/// use gmm_api::MapRequest;
/// use gmm_design::DesignBuilder;
///
/// let mut b = DesignBuilder::new("quick");
/// b.segment("coeffs", 128, 12).unwrap();
/// b.segment("frame", 4096, 8).unwrap();
/// let design = b.build().unwrap();
/// let board = gmm_arch::Board::prototyping("XCV300", 2).unwrap();
///
/// let report = MapRequest::new(design, board)
///     .deadline(std::time::Duration::from_secs(30))
///     .execute()
///     .unwrap();
/// assert_eq!(report.termination, gmm_api::Termination::Optimal);
/// assert!(report.outcome.is_some());
/// ```
///
/// Cancellation is cooperative and cheap: hand the request a
/// [`CancelToken`] clone, keep the original, and `cancel()` it from any
/// thread — the solver polls it per branch-and-bound node and every few
/// simplex pivots:
///
/// ```
/// use gmm_api::MapRequest;
/// use gmm_ilp::control::CancelToken;
/// use gmm_design::DesignBuilder;
///
/// let mut b = DesignBuilder::new("c");
/// b.segment("s", 64, 8).unwrap();
/// let design = b.build().unwrap();
/// let board = gmm_arch::Board::prototyping("XCV300", 1).unwrap();
///
/// let token = CancelToken::new();
/// token.cancel(); // cancelled before it starts
/// let report = MapRequest::new(design, board)
///     .cancel_token(token)
///     .execute()
///     .unwrap();
/// assert_eq!(report.termination, gmm_api::Termination::Cancelled);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MapRequest {
    design: Design,
    board: Board,
    options: MapperOptions,
    mode: SolveMode,
}

impl MapRequest {
    /// A request with default options (see [`MapperOptions`] for the
    /// documented defaults).
    pub fn new(design: Design, board: Board) -> MapRequest {
        MapRequest {
            design,
            board,
            options: MapperOptions::new(),
            mode: SolveMode::Ilp,
        }
    }

    /// Which engine(s) run: the exact ILP (default; the greedy assignment
    /// only starts its root LP), the greedy heuristic alone, or the
    /// portfolio (heuristic first, its assignment seeded as the
    /// branch-and-bound incumbent, ILP second for the proof). Under
    /// `Portfolio`, a heuristic seed overrides any [`MapRequest::warm_hint`]
    /// — the instance-exact greedy answer dominates a sibling's.
    pub fn solve_mode(mut self, mode: SolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Objective weights for the three-component cost (paper §4.1.3).
    pub fn weights(mut self, weights: CostWeights) -> Self {
        self.options.weights = weights;
        self
    }

    /// Which MIP engine runs the global formulation.
    pub fn backend(mut self, backend: SolverBackend) -> Self {
        self.options.backend = backend;
        self
    }

    /// Simplex basis-factorization backend (shorthand that reaches into
    /// whichever engine is configured).
    pub fn lp_basis(mut self, basis: BasisBackend) -> Self {
        self.options.backend.set_lp_basis(basis);
        self
    }

    /// Simplex entering-column pricing rule (shorthand that reaches into
    /// whichever engine is configured).
    pub fn lp_pricing(mut self, pricing: PricingRule) -> Self {
        self.options.backend.set_lp_pricing(pricing);
        self
    }

    /// Which detailed mapper runs after global mapping.
    pub fn strategy(mut self, strategy: DetailedStrategy) -> Self {
        self.options.detailed = strategy;
        self
    }

    /// Lifetime-based capacity modification (paper §4.1.2 note).
    pub fn overlap_aware(mut self, on: bool) -> Self {
        self.options.overlap_aware = on;
        self
    }

    /// Retry budget for the global/detailed loop (paper §4.1).
    pub fn max_retries(mut self, n: usize) -> Self {
        self.options.max_retries = n;
        self
    }

    /// Wall-clock budget for the whole session. When it expires the
    /// session returns [`Termination::DeadlineExceeded`] promptly (the
    /// solver polls the deadline every few simplex pivots), carrying
    /// whatever incumbent it had.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(budget);
        self
    }

    /// Branch-and-bound node budget across all global solves.
    pub fn node_budget(mut self, nodes: u64) -> Self {
        self.options.node_budget = Some(nodes);
        self
    }

    /// Cooperative cancellation: keep a clone of the token and
    /// `cancel()` it from any thread to stop the session.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.options.control.cancel = Some(token);
        self
    }

    /// Warm-start hint: a sibling instance's global assignment
    /// (`hint[d]` = bank type index of segment `d`), offered to the
    /// global ILP as an incumbent seed. The solver validates it against
    /// *this* instance and silently drops a hint that does not fit;
    /// [`MapReport::incumbent_seeded`] reports whether it was accepted.
    pub fn warm_hint(mut self, hint: Vec<u32>) -> Self {
        self.options.warm_hint = Some(hint);
        self
    }

    /// Progress sink: phase transitions, incumbent updates, and a node
    /// heartbeat.
    pub fn observer(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.options.control.observer = Some(observer);
        self
    }

    pub fn design(&self) -> &Design {
        &self.design
    }

    pub fn board(&self) -> &Board {
        &self.board
    }

    pub fn options(&self) -> &MapperOptions {
        &self.options
    }

    pub fn mode(&self) -> SolveMode {
        self.mode
    }

    /// Greedy-mapper knobs derived from this request: same cost weights
    /// and overlap-awareness as the ILP run, so a greedy assignment is a
    /// valid incumbent for the model the ILP actually solves.
    fn heur_options(&self) -> HeurOptions {
        let mut h = HeurOptions::new();
        h.weights = self.options.weights;
        h.overlap_aware = self.options.overlap_aware;
        h
    }

    /// Run the session.
    ///
    /// Legitimate outcomes — optimality, feasibility, deadline,
    /// cancellation, infeasibility — all return `Ok` with the
    /// [`Termination`] inside the report; `Err` is reserved for engine
    /// failures (see [`ApiError`]).
    pub fn execute(&self) -> Result<MapReport, ApiError> {
        match self.mode {
            SolveMode::Ilp => self.execute_ilp(),
            SolveMode::Heuristic => Ok(self.execute_heuristic()),
            SolveMode::Portfolio => self.execute_portfolio(),
        }
    }

    /// The exact pipeline. The greedy assignment, when there is one, only
    /// starts the root LP at its vertex ([`MapperOptions::start_hint`]):
    /// it is not an incumbent, so the report carries no heuristic figures.
    fn execute_ilp(&self) -> Result<MapReport, ApiError> {
        let t0 = Instant::now();
        self.options.control.phase("preprocess");
        let pre = PreTable::build(&self.design, &self.board);
        let matrix = CostMatrix::build(&self.design, &self.board, &pre);
        let greedy = greedy_solve_with(
            &self.design,
            &self.board,
            &pre,
            &matrix,
            &self.heur_options(),
            &[],
        );
        let mut mapper_options = self.options.clone();
        mapper_options.start_hint = greedy.ok().map(|sol| type_indices(&sol));
        let run =
            Mapper::new(mapper_options).map_run_with(&self.design, &self.board, &pre, &matrix);
        self.ilp_report(run, None, t0)
    }

    /// The report of a finished exact pipeline run that began at `t0`;
    /// `heuristic_objective` is the seeding greedy answer's, if any.
    fn ilp_report(
        &self,
        run: MapRun,
        heuristic_objective: Option<f64>,
        t0: Instant,
    ) -> Result<MapReport, ApiError> {
        let total_time = t0.elapsed();
        let stats = run.stats;

        let mut report = MapReport {
            termination: Termination::Infeasible,
            outcome: None,
            diagnostic: None,
            objective: None,
            retries: stats.retries,
            global_time: stats.global_time,
            detailed_time: stats.detailed_time,
            total_time,
            nodes_explored: stats.nodes_explored,
            lp_iterations: stats.lp_iterations,
            warm_started_nodes: stats.warm_started_nodes,
            refactorizations: stats.refactorizations,
            eta_nnz_peak: stats.eta_nnz_peak,
            incumbent_seeded: stats.incumbent_seeded,
            heuristic_objective,
            proved_optimal_from_heuristic: false,
        };
        match run.result {
            Ok(outcome) => {
                report.termination = MapReport::success_termination(&stats);
                let objective = outcome.cost.weighted(&self.options.weights);
                report.objective = Some(objective);
                if report.termination == Termination::Optimal {
                    if let Some(h) = report.heuristic_objective {
                        report.proved_optimal_from_heuristic =
                            (h - objective).abs() <= 1e-6 * objective.abs().max(1.0);
                    }
                }
                report.outcome = Some(outcome);
                Ok(report)
            }
            Err(MapError::Infeasible) => {
                report.termination = Termination::Infeasible;
                report.diagnostic =
                    Some("the design's port/capacity demand exceeds the board".into());
                Ok(report)
            }
            Err(MapError::Unmappable(segs)) => {
                report.termination = Termination::Infeasible;
                report.diagnostic = Some(format!(
                    "{} segment(s) fit no bank type on this board (first: segment {})",
                    segs.len(),
                    segs.first().map(|s| s.0).unwrap_or(0)
                ));
                Ok(report)
            }
            Err(MapError::Deadline) => {
                report.termination = Termination::DeadlineExceeded;
                Ok(report)
            }
            Err(MapError::Cancelled) => {
                report.termination = Termination::Cancelled;
                Ok(report)
            }
            Err(e) => Err(ApiError::Map(e)),
        }
    }

    /// Greedy only: microsecond answers, `Feasible` termination, no proof.
    fn execute_heuristic(&self) -> MapReport {
        let t0 = Instant::now();
        self.options.control.phase("preprocess");
        let pre = PreTable::build(&self.design, &self.board);
        let matrix = CostMatrix::build(&self.design, &self.board, &pre);
        self.options.control.phase("heuristic");
        let mut report = MapReport::default();
        match greedy_map_with(
            &self.design,
            &self.board,
            &pre,
            &matrix,
            &self.heur_options(),
        ) {
            Ok(m) => {
                report.termination = Termination::Feasible;
                report.objective = Some(m.objective);
                report.heuristic_objective = Some(m.objective);
                report.outcome = Some(MappingOutcome {
                    cost: m.assignment.cost,
                    global: m.assignment,
                    detailed: m.detailed,
                    stats: Default::default(),
                });
            }
            Err(HeurInfeasible::Unmappable(segs)) => {
                report.termination = Termination::Infeasible;
                report.diagnostic = Some(format!(
                    "{} segment(s) fit no bank type on this board (first: segment {})",
                    segs.len(),
                    segs.first().map(|s| s.0).unwrap_or(0)
                ));
            }
            Err(e) => {
                // NoFit / DetailedFailed are *not* infeasibility proofs;
                // the diagnostic (from the error's Display) says so and
                // points at the exact mode.
                report.termination = Termination::Infeasible;
                report.diagnostic = Some(e.to_string());
            }
        }
        report.total_time = t0.elapsed();
        report
    }

    /// Heuristic first, ILP second with the greedy assignment as the
    /// incumbent seed. A deadline exit with *any* feasible answer in hand
    /// — the ILP's own best incumbent or the greedy fallback — terminates
    /// `Feasible` instead of empty-handed `DeadlineExceeded`.
    fn execute_portfolio(&self) -> Result<MapReport, ApiError> {
        let t0 = Instant::now();
        let heur_options = self.heur_options();
        self.options.control.phase("heuristic");
        let pre = PreTable::build(&self.design, &self.board);
        let matrix = CostMatrix::build(&self.design, &self.board, &pre);
        let seed =
            greedy_solve_with(&self.design, &self.board, &pre, &matrix, &heur_options, &[]).ok();

        let mut mapper_options = self.options.clone();
        if let Some(sol) = &seed {
            mapper_options.warm_hint = Some(type_indices(sol));
        }
        let run = Mapper::new(mapper_options).map_run(&self.design, &self.board);
        let mut report = self.ilp_report(run, seed.as_ref().map(|s| s.objective), t0)?;
        if report.termination == Termination::DeadlineExceeded {
            if report.outcome.is_some() {
                // The tree ran out of time but an incumbent mapping exists:
                // that is the definition of `Feasible`.
                report.termination = Termination::Feasible;
            } else if seed.is_some() {
                if let Ok(m) =
                    greedy_map_with(&self.design, &self.board, &pre, &matrix, &heur_options)
                {
                    report.termination = Termination::Feasible;
                    report.objective = Some(m.objective);
                    report.heuristic_objective = Some(m.objective);
                    report.outcome = Some(MappingOutcome {
                        cost: m.assignment.cost,
                        global: m.assignment,
                        detailed: m.detailed,
                        stats: Default::default(),
                    });
                }
            }
        }
        report.total_time = t0.elapsed();
        Ok(report)
    }
}

/// A greedy answer in the hint encoding: bank type index per segment.
fn type_indices(sol: &HeurSolution) -> Vec<u32> {
    sol.assignment.type_of.iter().map(|t| t.0 as u32).collect()
}
