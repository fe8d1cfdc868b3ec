//! Global memory mapping (paper §4.1): the small ILP over `Z_dt` alone.
//!
//! Constraints (§4.1.2):
//! * **uniqueness** — every data structure lands on exactly one bank type;
//! * **ports** — `Σ_d Z_dt · CP_dt ≤ P_t · I_t` per type;
//! * **capacity** — `Σ_d Z_dt · CW_dt · CD_dt ≤ I_t · W_t[1] · D_t[1]` per
//!   type; when lifetimes are known the constraint is "slightly modified
//!   to allow overlapping" (§4.1.2 note): it is posted once per maximal
//!   set of simultaneously-live segments instead of once globally.
//!
//! Objective (§4.1.3): weighted latency + pin-delay + pin-I/O cost.

use crate::cost::{assignment_cost, CostMatrix, CostWeights};
use crate::preprocess::PreTable;
use gmm_arch::{BankTypeId, Board};
use gmm_design::{Design, SegmentId};
use gmm_ilp::branch::{solve_mip, MipOptions, MipResult};
use gmm_ilp::control::SolveControl;
use gmm_ilp::error::{IlpError, MipStatus, StopReason};
use gmm_ilp::model::{LinExpr, Model, Objective, Sense, VarId};

use crate::mapping::GlobalAssignment;

/// The MIP engine that runs the formulation: serial best-bound
/// branch-and-bound.
#[derive(Debug, Clone)]
pub enum SolverBackend {
    /// Serial best-bound branch-and-bound.
    Serial(MipOptions),
}

impl Default for SolverBackend {
    fn default() -> Self {
        SolverBackend::Serial(MipOptions::default())
    }
}

impl SolverBackend {
    /// Solve a model with the configured options.
    pub fn solve(&self, model: &Model) -> Result<MipResult, IlpError> {
        solve_mip(model, self.mip_options())
    }

    /// Select the simplex basis-factorization backend (CLI `--lp-basis`
    /// plumbing).
    pub fn set_lp_basis(&mut self, basis: gmm_ilp::BasisBackend) {
        self.mip_options_mut().simplex.basis = basis;
    }

    /// The configured basis-factorization backend.
    pub fn lp_basis(&self) -> gmm_ilp::BasisBackend {
        self.mip_options().simplex.basis
    }

    /// Select the simplex entering-column pricing rule (CLI
    /// `--lp-pricing` plumbing).
    pub fn set_lp_pricing(&mut self, pricing: gmm_ilp::PricingRule) {
        self.mip_options_mut().simplex.pricing = pricing;
    }

    /// The configured pricing rule.
    pub fn lp_pricing(&self) -> gmm_ilp::PricingRule {
        self.mip_options().simplex.pricing
    }

    fn mip_options(&self) -> &MipOptions {
        let SolverBackend::Serial(opts) = self;
        opts
    }

    /// Mutable access to the underlying MIP options.
    pub fn mip_options_mut(&mut self) -> &mut MipOptions {
        let SolverBackend::Serial(opts) = self;
        opts
    }

    /// Thread a remaining time budget, node budget, and control bundle
    /// into the engine options (tightening, never loosening, existing
    /// limits). The pipeline calls this once per global/detailed retry
    /// attempt so limits shrink as the retry loop consumes budget.
    pub fn apply_control(
        &mut self,
        time_left: Option<std::time::Duration>,
        nodes_left: Option<u64>,
        control: &SolveControl,
    ) {
        let mip = self.mip_options_mut();
        if let Some(t) = time_left {
            mip.time_limit = Some(mip.time_limit.map_or(t, |existing| existing.min(t)));
        }
        if let Some(n) = nodes_left {
            mip.node_limit = Some(mip.node_limit.map_or(n, |existing| existing.min(n)));
        }
        if mip.control.cancel.is_none() {
            mip.control.cancel = control.cancel.clone();
        }
        if mip.control.observer.is_none() {
            mip.control.observer = control.observer.clone();
        }
    }
}

/// Errors of the mapping pipeline.
#[derive(Debug, Clone)]
pub enum MapError {
    /// Segments too large for every bank type on the board.
    Unmappable(Vec<SegmentId>),
    /// The ILP is infeasible: the board cannot host the design.
    Infeasible,
    /// The solver hit a limit before finding any integer solution.
    NoSolution,
    /// Engine failure.
    Solver(IlpError),
    /// Detailed mapping failed even after the retry budget (only possible
    /// for banks with more than two ports, where the Figure-3 accounting
    /// is conservative but not exact — paper §4.1.1 and §6).
    DetailedFailed { retries: usize },
    /// The wall-clock deadline expired before any integer solution was
    /// found (a deadline with a feasible incumbent still returns `Ok`).
    Deadline,
    /// The solve's [`gmm_ilp::control::CancelToken`] was cancelled.
    Cancelled,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Unmappable(v) => write!(f, "{} segment(s) fit no bank type", v.len()),
            MapError::Infeasible => write!(f, "board cannot host the design"),
            MapError::NoSolution => write!(f, "solver limit reached with no solution"),
            MapError::Solver(e) => write!(f, "solver error: {e}"),
            MapError::DetailedFailed { retries } => {
                write!(f, "detailed mapping failed after {retries} retries")
            }
            MapError::Deadline => write!(f, "deadline exceeded with no solution"),
            MapError::Cancelled => write!(f, "solve cancelled"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<IlpError> for MapError {
    fn from(e: IlpError) -> Self {
        match e {
            IlpError::Deadline => MapError::Deadline,
            IlpError::Cancelled => MapError::Cancelled,
            other => MapError::Solver(other),
        }
    }
}

/// Solver-side counters of one global ILP solve, accumulated by the
/// pipeline across retry attempts and surfaced in
/// [`crate::pipeline::MapStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveTelemetry {
    /// Final MIP status of the solve (`None` before any solve ran).
    pub status: Option<MipStatus>,
    pub nodes_explored: u64,
    pub lp_iterations: u64,
    pub warm_started_nodes: u64,
    /// Basis refactorizations across all node LPs.
    pub refactorizations: u64,
    /// Worst eta-file fill-in any single node LP reached.
    pub eta_nnz_peak: u64,
    /// 1 when an external warm-start hint was accepted as the starting
    /// incumbent of this solve (see [`solve_global_hinted_with_stats`]).
    pub incumbent_seeded: u64,
    /// Why the engine stopped early, if it did.
    pub stop_reason: Option<StopReason>,
}

/// A no-good cut: forbid assigning this exact segment set to this type
/// simultaneously (used by the global/detailed retry loop, §4.1).
#[derive(Debug, Clone)]
pub struct NoGood {
    pub bank_type: BankTypeId,
    pub segments: Vec<SegmentId>,
}

/// The constructed global model plus its variable map.
pub struct GlobalModel {
    pub model: Model,
    /// `z[d][t]`: the `Z_dt` variable, `None` when the pair is infeasible.
    pub z: Vec<Vec<Option<VarId>>>,
}

impl GlobalModel {
    /// The model point of an assignment (`types[d]` = bank type index of
    /// segment `d`), or `None` when it has the wrong length or names a
    /// pair this model has no variable for. Every variable of the model
    /// is some `Z_dt`, so setting the assigned pairs to 1.0 over a zero
    /// vector describes the assignment exactly.
    pub fn point(&self, types: &[u32]) -> Option<Vec<f64>> {
        if types.len() != self.z.len() {
            return None;
        }
        let mut x = vec![0.0; self.model.num_vars()];
        for (row, &t) in self.z.iter().zip(types) {
            let var = row.get(t as usize).copied().flatten()?;
            x[var.index()] = 1.0;
        }
        Some(x)
    }
}

/// Build the §4.1 ILP.
///
/// `overlap_aware` activates the lifetime-based capacity modification; it
/// has no effect when the design carries no lifetimes.
pub fn build_global_model(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    weights: &CostWeights,
    overlap_aware: bool,
    no_goods: &[NoGood],
) -> Result<GlobalModel, MapError> {
    let unmappable = pre.unmappable_segments();
    if !unmappable.is_empty() {
        return Err(MapError::Unmappable(unmappable));
    }

    let mut model = Model::new();
    model.set_objective_direction(Objective::Minimize);

    let num_d = design.num_segments();
    let num_t = board.num_types();
    let mut z: Vec<Vec<Option<VarId>>> = vec![vec![None; num_t]; num_d];
    for d in 0..num_d {
        for t in 0..num_t {
            let (did, tid) = (SegmentId(d), BankTypeId(t));
            if !pre.is_feasible(did, tid) {
                continue;
            }
            let cost = matrix.pair(did, tid).weighted(weights);
            let var = model.add_binary(cost);
            model.set_var_name(var, format!("Z[{d}][{t}]"));
            z[d][t] = Some(var);
        }
    }

    // Uniqueness: sum_t Z_dt = 1.
    for d in 0..num_d {
        let mut expr = LinExpr::new();
        for t in 0..num_t {
            if let Some(v) = z[d][t] {
                expr.push(v, 1.0);
            }
        }
        let c = model
            .add_constraint(expr, Sense::Eq, 1.0)
            .expect("uniqueness terms valid");
        model.set_constraint_name(c, format!("uniq[{d}]"));
    }

    // Ports: sum_d Z_dt * CP_dt <= P_t * I_t.
    for t in 0..num_t {
        let bank = board.bank(BankTypeId(t));
        let mut expr = LinExpr::new();
        for d in 0..num_d {
            if let Some(v) = z[d][t] {
                expr.push(v, pre.entry(SegmentId(d), BankTypeId(t)).cp() as f64);
            }
        }
        if expr.is_empty() {
            continue;
        }
        let c = model
            .add_constraint(expr, Sense::Le, bank.total_ports() as f64)
            .expect("port terms valid");
        model.set_constraint_name(c, format!("ports[{t}]"));
    }

    // Capacity: global, or per concurrency clique when overlap-aware.
    let cliques: Vec<Vec<SegmentId>> = if overlap_aware {
        design.concurrency_cliques()
    } else {
        vec![(0..num_d).map(SegmentId).collect()]
    };
    for t in 0..num_t {
        let bank = board.bank(BankTypeId(t));
        let cap = bank.total_capacity_bits() as f64;
        for (ci, clique) in cliques.iter().enumerate() {
            let mut expr = LinExpr::new();
            for &d in clique {
                if let Some(v) = z[d.0][t] {
                    expr.push(v, pre.entry(d, BankTypeId(t)).area_bits() as f64);
                }
            }
            if expr.is_empty() {
                continue;
            }
            let c = model
                .add_constraint(expr, Sense::Le, cap)
                .expect("capacity terms valid");
            model.set_constraint_name(c, format!("cap[{t}][{ci}]"));
        }
    }

    // No-good cuts from failed detailed attempts.
    for ng in no_goods {
        let mut expr = LinExpr::new();
        let mut count = 0.0;
        for &d in &ng.segments {
            if let Some(v) = z[d.0][ng.bank_type.0] {
                expr.push(v, 1.0);
                count += 1.0;
            }
        }
        if count > 0.0 {
            model
                .add_constraint(expr, Sense::Le, count - 1.0)
                .expect("no-good terms valid");
        }
    }

    Ok(GlobalModel { model, z })
}

/// Solve the global mapping problem.
pub fn solve_global(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    weights: &CostWeights,
    backend: &SolverBackend,
    overlap_aware: bool,
    no_goods: &[NoGood],
) -> Result<GlobalAssignment, MapError> {
    solve_global_with_stats(
        design,
        board,
        pre,
        matrix,
        weights,
        backend,
        overlap_aware,
        no_goods,
    )
    .map(|(assignment, _)| assignment)
    .map_err(|(e, _)| e)
}

/// [`solve_global`] plus the engine's [`SolveTelemetry`]. On failure the
/// telemetry rides inside the error-side tuple so deadline/cancel
/// terminations still report how far the search got.
#[allow(clippy::too_many_arguments)]
pub fn solve_global_with_stats(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    weights: &CostWeights,
    backend: &SolverBackend,
    overlap_aware: bool,
    no_goods: &[NoGood],
) -> Result<(GlobalAssignment, SolveTelemetry), (MapError, SolveTelemetry)> {
    solve_global_hinted_with_stats(
        design,
        board,
        pre,
        matrix,
        weights,
        backend,
        overlap_aware,
        no_goods,
        None,
        None,
    )
}

/// [`solve_global_with_stats`] with optional hints, each an assignment
/// (`hint[d]` = bank type index of segment `d`):
///
/// * `hint` — a sibling instance's assignment, typically retrieved from
///   the service's persistent family-keyed hint store, offered to the
///   engine as an incumbent seed
///   ([`MipOptions::incumbent_seed`](gmm_ilp::branch::MipOptions::incumbent_seed)).
///   [`SolveTelemetry::incumbent_seeded`] reports acceptance.
/// * `start` — this instance's own feasible assignment (the greedy
///   answer), used only as the root LP's starting vertex
///   ([`MipOptions::root_start`](gmm_ilp::branch::MipOptions::root_start)) and never
///   as the incumbent. An accepted `hint` takes precedence.
///
/// Either hint is dropped without effect when it does not fit (wrong
/// segment count, a hinted pair infeasible here) or fails the engine's
/// own feasibility re-check (e.g. against a no-good cut the sibling, or
/// the first attempt, never had).
#[allow(clippy::too_many_arguments)]
pub fn solve_global_hinted_with_stats(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    weights: &CostWeights,
    backend: &SolverBackend,
    overlap_aware: bool,
    no_goods: &[NoGood],
    hint: Option<&[u32]>,
    start: Option<&[u32]>,
) -> Result<(GlobalAssignment, SolveTelemetry), (MapError, SolveTelemetry)> {
    let gm = match build_global_model(design, board, pre, matrix, weights, overlap_aware, no_goods)
    {
        Ok(gm) => gm,
        Err(e) => return Err((e, SolveTelemetry::default())),
    };
    let mut backend = backend.clone();
    let mip = backend.mip_options_mut();
    if let Some(x) = hint.and_then(|types| gm.point(types)) {
        mip.incumbent_seed = Some(x);
    }
    if let Some(x) = start.and_then(|types| gm.point(types)) {
        mip.root_start = Some(x);
    }
    let result = match backend.solve(&gm.model) {
        Ok(r) => r,
        Err(e) => return Err((MapError::from(e), SolveTelemetry::default())),
    };
    let telemetry = SolveTelemetry {
        status: Some(result.status),
        nodes_explored: result.nodes_explored,
        lp_iterations: result.lp_iterations,
        warm_started_nodes: result.warm_started_nodes,
        refactorizations: result.refactorizations,
        eta_nnz_peak: result.eta_nnz_peak,
        incumbent_seeded: result.incumbent_seeded as u64,
        stop_reason: result.stop_reason,
    };
    match result.status {
        MipStatus::Optimal | MipStatus::Feasible => {}
        MipStatus::Infeasible => return Err((MapError::Infeasible, telemetry)),
        MipStatus::Unbounded => return Err((MapError::NoSolution, telemetry)),
        MipStatus::Unknown => {
            // A limit stopped the search before *any* integer solution:
            // classify by what stopped it.
            let e = match result.stop_reason {
                Some(StopReason::Deadline) => MapError::Deadline,
                Some(StopReason::Cancelled) => MapError::Cancelled,
                _ => MapError::NoSolution,
            };
            return Err((e, telemetry));
        }
    }
    let x = result.best_solution.expect("status has solution");
    let mut type_of = Vec::with_capacity(design.num_segments());
    for d in 0..design.num_segments() {
        let mut chosen = None;
        for t in 0..board.num_types() {
            if let Some(v) = gm.z[d][t] {
                if x[v.index()] > 0.5 {
                    chosen = Some(BankTypeId(t));
                    break;
                }
            }
        }
        type_of.push(chosen.expect("uniqueness constraint guarantees a type"));
    }
    let cost = assignment_cost(matrix, &type_of);
    Ok((GlobalAssignment { type_of, cost }, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_arch::{BankType, Placement, RamConfig};
    use gmm_design::DesignBuilder;

    fn sized_board(onchip: u32, offchip: u32) -> Board {
        Board::new(
            "b",
            vec![
                BankType::new(
                    "onchip",
                    onchip,
                    2,
                    vec![RamConfig::new(4096, 1), RamConfig::new(512, 8)],
                    1,
                    1,
                    Placement::OnChip,
                )
                .unwrap(),
                BankType::new(
                    "offchip",
                    offchip,
                    1,
                    vec![RamConfig::new(262_144, 32)],
                    2,
                    2,
                    Placement::DirectOffChip,
                )
                .unwrap(),
            ],
        )
        .unwrap()
    }

    fn two_tier_board() -> Board {
        // Remember: ports are never shared between segments (paper §6), so
        // a single-port off-chip bank hosts exactly one segment.
        sized_board(4, 16)
    }

    fn solve(design: &Design, board: &Board, overlap: bool) -> Result<GlobalAssignment, MapError> {
        let pre = PreTable::build(design, board);
        let matrix = CostMatrix::build(design, board, &pre);
        solve_global(
            design,
            board,
            &pre,
            &matrix,
            &CostWeights::default(),
            &SolverBackend::default(),
            overlap,
            &[],
        )
    }

    #[test]
    fn small_design_prefers_onchip() {
        let mut b = DesignBuilder::new("d");
        let s = b.segment("s", 256, 8).unwrap();
        let design = b.build().unwrap();
        let board = two_tier_board();
        let ga = solve(&design, &board, false).unwrap();
        assert_eq!(ga.type_of[s.0], BankTypeId(0), "on-chip is cheaper");
        assert_eq!(ga.cost.pin_delay, 0.0);
    }

    #[test]
    fn oversubscription_spills_offchip() {
        // 12 segments of 512x8: each consumes a full on-chip instance
        // (4096 bits); only 4 on-chip instances exist, so most spill.
        let mut b = DesignBuilder::new("d");
        for i in 0..12 {
            b.segment(format!("s{i}"), 512, 8).unwrap();
        }
        let design = b.build().unwrap();
        let board = two_tier_board();
        let ga = solve(&design, &board, false).unwrap();
        let onchip = ga.type_of.iter().filter(|t| t.0 == 0).count();
        let offchip = ga.type_of.iter().filter(|t| t.0 == 1).count();
        assert!(
            onchip <= 4,
            "at most one 512x8 per dual-port 4096b instance... {onchip}"
        );
        assert_eq!(onchip + offchip, 12);
        assert!(offchip >= 8);
    }

    #[test]
    fn infeasible_when_board_too_small() {
        let mut b = DesignBuilder::new("d");
        for i in 0..40 {
            b.segment(format!("s{i}"), 262_144, 32).unwrap();
        }
        let design = b.build().unwrap();
        let board = two_tier_board();
        match solve(&design, &board, false) {
            Err(MapError::Infeasible) => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn unmappable_segment_reported() {
        let mut b = DesignBuilder::new("d");
        b.segment("giant", 1 << 23, 64).unwrap();
        let design = b.build().unwrap();
        let board = two_tier_board();
        match solve(&design, &board, false) {
            Err(MapError::Unmappable(v)) => assert_eq!(v.len(), 1),
            other => panic!("expected unmappable, got {other:?}"),
        }
    }

    #[test]
    fn overlap_awareness_packs_more_onchip() {
        use gmm_design::Lifetime;
        // Two phases: 6 segments live in [0,10), 6 in [10,20). With
        // overlap-aware capacity, both phase groups can use on-chip space;
        // without, half must spill.
        let build = |with_lifetimes: bool| {
            let mut b = DesignBuilder::new("d");
            for i in 0..12 {
                let s = b.segment(format!("s{i}"), 512, 8).unwrap();
                if with_lifetimes {
                    let lt = if i < 6 {
                        Lifetime::new(0, 10).unwrap()
                    } else {
                        Lifetime::new(10, 20).unwrap()
                    };
                    b.lifetime(s, lt);
                }
            }
            b.build().unwrap()
        };
        let board = two_tier_board();

        let without = solve(&build(false), &board, true).unwrap();
        let with = solve(&build(true), &board, true).unwrap();
        let onchip_without = without.type_of.iter().filter(|t| t.0 == 0).count();
        let onchip_with = with.type_of.iter().filter(|t| t.0 == 0).count();
        // Ports still bound the overlap-aware case: 8 on-chip ports, each
        // 512x8 segment consumes 2 (a full instance), so max 4 live at
        // once but port constraint is global... it still limits to 4.
        assert!(
            onchip_with >= onchip_without,
            "overlap awareness can only help: {onchip_with} vs {onchip_without}"
        );
    }

    #[test]
    fn no_good_cut_excludes_assignment() {
        let mut b = DesignBuilder::new("d");
        let s = b.segment("s", 256, 8).unwrap();
        let design = b.build().unwrap();
        let board = two_tier_board();
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        // Forbid the on-chip choice for the lone segment.
        let ng = NoGood {
            bank_type: BankTypeId(0),
            segments: vec![s],
        };
        let ga = solve_global(
            &design,
            &board,
            &pre,
            &matrix,
            &CostWeights::default(),
            &SolverBackend::default(),
            false,
            &[ng],
        )
        .unwrap();
        assert_eq!(ga.type_of[s.0], BankTypeId(1), "no-good forces off-chip");
    }

    #[test]
    fn hinted_solve_matches_cold_solve_and_counts_the_seed() {
        let mut b = DesignBuilder::new("d");
        for i in 0..8 {
            b.segment(format!("s{i}"), 512, 8).unwrap();
        }
        let design = b.build().unwrap();
        let board = two_tier_board();
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let w = CostWeights::default();
        let backend = SolverBackend::default();

        let (cold, cold_tel) =
            solve_global_with_stats(&design, &board, &pre, &matrix, &w, &backend, false, &[])
                .unwrap();
        assert_eq!(cold_tel.incumbent_seeded, 0);

        // Seed the second solve with the first's own assignment: it must
        // be accepted and the outcome must be identical.
        let hint: Vec<u32> = cold.type_of.iter().map(|t| t.0 as u32).collect();
        let (warm, warm_tel) = solve_global_hinted_with_stats(
            &design,
            &board,
            &pre,
            &matrix,
            &w,
            &backend,
            false,
            &[],
            Some(&hint),
            None,
        )
        .unwrap();
        assert_eq!(warm_tel.incumbent_seeded, 1, "own optimum must seed");
        assert_eq!(warm.type_of, cold.type_of);
        assert_eq!(warm.cost, cold.cost);

        // A mis-sized hint is dropped without harming the solve.
        let (dropped, dropped_tel) = solve_global_hinted_with_stats(
            &design,
            &board,
            &pre,
            &matrix,
            &w,
            &backend,
            false,
            &[],
            Some(&[0u32]),
            None,
        )
        .unwrap();
        assert_eq!(dropped_tel.incumbent_seeded, 0);
        assert_eq!(dropped.type_of, cold.type_of);
    }
}
