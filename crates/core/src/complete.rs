//! The **complete** one-step memory-mapping ILP — the baseline the paper
//! compares against (its own prior work \[9\], DATE 2001).
//!
//! The full formulation of \[9\] is not reprinted in the paper; this module
//! reconstructs it faithfully from the §4 notation list, which defines all
//! three variable families:
//!
//! * `Z_dt`   — structure `d` uses bank type `t`;
//! * `X_dtip` — structure `d` is assigned to port `p` of instance `i` of
//!   type `t`;
//! * `Y_tipc` — configuration `c` is selected for port `p` of instance `i`
//!   of type `t` (multi-configuration banks only).
//!
//! Constraints: uniqueness over `Z`; port-count linking
//! (`Σ_ip X_dtip = CP_dt · Z_dt`); port exclusivity (`Σ_d X_dtip ≤ 1`,
//! §6: no arbitration); per-type capacity; one configuration per port; and
//! configuration compatibility (a port serving `d` must be configured as
//! `d`'s α or β configuration).
//!
//! The objective depends only on `Z_dt` and is identical to the global
//! formulation's, so **the optimal cost of this model equals the
//! global/detailed optimum** — the paper's key observation, which the test
//! suite and the property tests in `tests/` verify. What differs is size:
//! `Σ_t I_t·P_t` port variables per structure and `Σ C_t` configuration
//! variables per port make this model explode on large boards, which is
//! exactly the Table 3 result.

use crate::cost::{assignment_cost, CostMatrix, CostWeights};
use crate::global::{MapError, SolverBackend};
use crate::mapping::GlobalAssignment;
use crate::preprocess::PreTable;
use gmm_arch::{BankTypeId, Board};
use gmm_design::{Design, SegmentId};
use gmm_ilp::error::MipStatus;
use gmm_ilp::model::{LinExpr, Model, Objective, Sense, VarId};

/// Size statistics of a constructed model (reported by the Table 3
/// harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelStats {
    pub variables: usize,
    pub constraints: usize,
    pub nonzeros: usize,
}

impl ModelStats {
    pub fn of(model: &Model) -> Self {
        ModelStats {
            variables: model.num_vars(),
            constraints: model.num_constraints(),
            nonzeros: model.nnz(),
        }
    }
}

/// The constructed complete model plus the `Z` variable map needed to
/// extract the assignment.
pub struct CompleteModel {
    pub model: Model,
    pub z: Vec<Vec<Option<VarId>>>,
    pub stats: ModelStats,
}

/// Build the complete one-step ILP.
pub fn build_complete_model(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    weights: &CostWeights,
    overlap_aware: bool,
) -> Result<CompleteModel, MapError> {
    let unmappable = pre.unmappable_segments();
    if !unmappable.is_empty() {
        return Err(MapError::Unmappable(unmappable));
    }

    let mut model = Model::new();
    model.set_objective_direction(Objective::Minimize);
    let num_d = design.num_segments();
    let num_t = board.num_types();

    // Z_dt.
    let mut z: Vec<Vec<Option<VarId>>> = vec![vec![None; num_t]; num_d];
    for d in 0..num_d {
        for t in 0..num_t {
            let (did, tid) = (SegmentId(d), BankTypeId(t));
            if !pre.is_feasible(did, tid) {
                continue;
            }
            let cost = matrix.pair(did, tid).weighted(weights);
            let v = model.add_binary(cost);
            model.set_var_name(v, format!("Z[{d}][{t}]"));
            z[d][t] = Some(v);
        }
    }

    // X_dtip: flat index per type over (instance, port).
    // x[d][t] = Vec of port variables, length I_t * P_t.
    let mut x: Vec<Vec<Vec<VarId>>> = vec![Vec::new(); num_d];
    for d in 0..num_d {
        x[d] = (0..num_t)
            .map(|t| {
                let tid = BankTypeId(t);
                if z[d][t].is_none() {
                    return Vec::new();
                }
                let bank = board.bank(tid);
                (0..bank.total_ports())
                    .map(|ip| {
                        let v = model.add_binary(0.0);
                        model.set_var_name(
                            v,
                            format!("X[{d}][{t}][{}][{}]", ip / bank.ports, ip % bank.ports),
                        );
                        v
                    })
                    .collect()
            })
            .collect();
    }

    // Y_tipc for multi-configuration types.
    let mut y: Vec<Vec<Vec<VarId>>> = Vec::with_capacity(num_t); // y[t][ip][c]
    for t in 0..num_t {
        let bank = board.bank(BankTypeId(t));
        if bank.num_configs() <= 1 {
            y.push(Vec::new());
            continue;
        }
        let per_port: Vec<Vec<VarId>> = (0..bank.total_ports())
            .map(|ip| {
                (0..bank.num_configs())
                    .map(|c| {
                        let v = model.add_binary(0.0);
                        model.set_var_name(v, format!("Y[{t}][{ip}][{c}]"));
                        v
                    })
                    .collect()
            })
            .collect();
        y.push(per_port);
    }

    // Uniqueness.
    for d in 0..num_d {
        let mut expr = LinExpr::new();
        for t in 0..num_t {
            if let Some(v) = z[d][t] {
                expr.push(v, 1.0);
            }
        }
        model
            .add_constraint(expr, Sense::Eq, 1.0)
            .expect("uniqueness valid");
    }

    // Port-count linking: sum_ip X = CP_dt * Z.
    for d in 0..num_d {
        for t in 0..num_t {
            let Some(zv) = z[d][t] else { continue };
            let cp = pre.entry(SegmentId(d), BankTypeId(t)).cp() as f64;
            let mut expr = LinExpr::new();
            for &xv in &x[d][t] {
                expr.push(xv, 1.0);
            }
            expr.push(zv, -cp);
            model
                .add_constraint(expr, Sense::Eq, 0.0)
                .expect("linking valid");
        }
    }

    // Port exclusivity: each physical port serves at most one structure.
    for t in 0..num_t {
        let bank = board.bank(BankTypeId(t));
        for ip in 0..bank.total_ports() as usize {
            let mut expr = LinExpr::new();
            for (d, xd) in x.iter().enumerate() {
                if z[d][t].is_some() {
                    expr.push(xd[t][ip], 1.0);
                }
            }
            if expr.is_empty() {
                continue;
            }
            model
                .add_constraint(expr, Sense::Le, 1.0)
                .expect("exclusivity valid");
        }
    }

    // Capacity (same form as global; per clique when overlap-aware).
    let cliques: Vec<Vec<SegmentId>> = if overlap_aware {
        design.concurrency_cliques()
    } else {
        vec![(0..num_d).map(SegmentId).collect()]
    };
    for t in 0..num_t {
        let bank = board.bank(BankTypeId(t));
        let cap = bank.total_capacity_bits() as f64;
        for clique in &cliques {
            let mut expr = LinExpr::new();
            for &d in clique {
                if let Some(v) = z[d.0][t] {
                    expr.push(v, pre.entry(d, BankTypeId(t)).area_bits() as f64);
                }
            }
            if expr.is_empty() {
                continue;
            }
            model
                .add_constraint(expr, Sense::Le, cap)
                .expect("capacity valid");
        }
    }

    // Configuration selection and compatibility.
    for t in 0..num_t {
        let bank = board.bank(BankTypeId(t));
        if bank.num_configs() <= 1 {
            continue;
        }
        for ip in 0..bank.total_ports() as usize {
            // Exactly one configuration per port.
            let mut sel = LinExpr::new();
            for c in 0..bank.num_configs() {
                sel.push(y[t][ip][c], 1.0);
            }
            model
                .add_constraint(sel, Sense::Eq, 1.0)
                .expect("selection valid");
            // A port serving structure d must be configured as d's alpha
            // or beta configuration.
            for d in 0..num_d {
                if z[d][t].is_none() {
                    continue;
                }
                let split = pre.entry(SegmentId(d), BankTypeId(t)).split;
                let mut expr = LinExpr::new();
                expr.push(x[d][t][ip], 1.0);
                for (c, cfg) in bank.configs.iter().enumerate() {
                    if *cfg == split.alpha || *cfg == split.beta {
                        expr.push(y[t][ip][c], -1.0);
                    }
                }
                model
                    .add_constraint(expr, Sense::Le, 0.0)
                    .expect("compatibility valid");
            }
        }
    }

    let stats = ModelStats::of(&model);
    Ok(CompleteModel { model, z, stats })
}

/// Solve the complete formulation and extract the type assignment.
pub fn solve_complete(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    weights: &CostWeights,
    backend: &SolverBackend,
    overlap_aware: bool,
) -> Result<(GlobalAssignment, ModelStats), MapError> {
    solve_complete_with_stats(design, board, pre, matrix, weights, backend, overlap_aware)
        .map(|(assignment, stats, _)| (assignment, stats))
}

/// [`solve_complete`] plus the engine's [`crate::global::SolveTelemetry`],
/// so callers can distinguish a proven optimum from a limit-truncated
/// feasible incumbent (the CLI's `--complete --deadline-secs` path does).
#[allow(clippy::too_many_arguments)]
pub fn solve_complete_with_stats(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    weights: &CostWeights,
    backend: &SolverBackend,
    overlap_aware: bool,
) -> Result<(GlobalAssignment, ModelStats, crate::global::SolveTelemetry), MapError> {
    let cm = build_complete_model(design, board, pre, matrix, weights, overlap_aware)?;
    let result = backend.solve(&cm.model)?;
    let telemetry = crate::global::SolveTelemetry {
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
        MipStatus::Infeasible => return Err(MapError::Infeasible),
        MipStatus::Unbounded => return Err(MapError::NoSolution),
        // Stopped before any integer solution: classify by the stopper.
        MipStatus::Unknown => {
            return Err(match result.stop_reason {
                Some(gmm_ilp::error::StopReason::Deadline) => MapError::Deadline,
                Some(gmm_ilp::error::StopReason::Cancelled) => MapError::Cancelled,
                _ => MapError::NoSolution,
            })
        }
    }
    let sol = result.best_solution.expect("status has solution");
    let mut type_of = Vec::with_capacity(design.num_segments());
    for d in 0..design.num_segments() {
        let mut chosen = None;
        for t in 0..board.num_types() {
            if let Some(v) = cm.z[d][t] {
                if sol[v.index()] > 0.5 {
                    chosen = Some(BankTypeId(t));
                    break;
                }
            }
        }
        type_of.push(chosen.expect("uniqueness guarantees a type"));
    }
    let cost = assignment_cost(matrix, &type_of);
    Ok((GlobalAssignment { type_of, cost }, cm.stats, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::solve_global;
    use gmm_arch::{BankType, Placement, RamConfig};
    use gmm_design::DesignBuilder;
    use gmm_ilp::branch::MipOptions;

    fn small_board() -> Board {
        Board::new(
            "b",
            vec![
                BankType::new(
                    "onchip",
                    4,
                    2,
                    vec![
                        RamConfig::new(4096, 1),
                        RamConfig::new(1024, 4),
                        RamConfig::new(512, 8),
                    ],
                    1,
                    1,
                    Placement::OnChip,
                )
                .unwrap(),
                BankType::new(
                    "offchip",
                    4,
                    1,
                    vec![RamConfig::new(65536, 16)],
                    2,
                    2,
                    Placement::DirectOffChip,
                )
                .unwrap(),
            ],
        )
        .unwrap()
    }

    fn small_design(n: usize) -> Design {
        let mut b = DesignBuilder::new("d");
        for i in 0..n {
            b.segment(format!("s{i}"), 64 + 32 * i as u32, 2 + (i % 4) as u32)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn complete_matches_global_optimum() {
        let design = small_design(5);
        let board = small_board();
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let w = CostWeights::default();
        let backend = SolverBackend::Serial(MipOptions::default());

        let global =
            solve_global(&design, &board, &pre, &matrix, &w, &backend, false, &[]).unwrap();
        let (complete, stats) =
            solve_complete(&design, &board, &pre, &matrix, &w, &backend, false).unwrap();
        let cg = global.cost.weighted(&w);
        let cc = complete.cost.weighted(&w);
        assert!(
            (cg - cc).abs() < 1e-6,
            "global {cg} vs complete {cc} must agree"
        );
        // The complete model is strictly larger.
        assert!(stats.variables > design.num_segments() * board.num_types());
    }

    #[test]
    fn complete_model_is_much_bigger_than_global() {
        let design = small_design(6);
        let board = small_board();
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let w = CostWeights::default();
        let gm = crate::global::build_global_model(&design, &board, &pre, &matrix, &w, false, &[])
            .unwrap();
        let cm = build_complete_model(&design, &board, &pre, &matrix, &w, false).unwrap();
        assert!(
            cm.stats.variables > 5 * gm.model.num_vars(),
            "complete {} vs global {}",
            cm.stats.variables,
            gm.model.num_vars()
        );
        assert!(cm.stats.constraints > gm.model.num_constraints());
    }

    #[test]
    fn complete_infeasible_when_ports_exhausted() {
        // 9 segments each needing a dedicated port, 8+4 ports available,
        // but every segment too big for... make them need 2 ports on-chip.
        let mut b = DesignBuilder::new("d");
        for i in 0..13 {
            b.segment(format!("s{i}"), 60000, 16).unwrap();
        }
        let design = b.build().unwrap();
        let board = small_board();
        let pre = PreTable::build(&design, &board);
        // 60000x16 does not fit on-chip at all; off-chip holds 4 (1/bank).
        let matrix = CostMatrix::build(&design, &board, &pre);
        let w = CostWeights::default();
        let backend = SolverBackend::Serial(MipOptions::default());
        match solve_complete(&design, &board, &pre, &matrix, &w, &backend, false) {
            Err(MapError::Infeasible) | Err(MapError::Unmappable(_)) => {}
            other => panic!("expected infeasible, got {:?}", other.map(|(a, _)| a)),
        }
    }
}
