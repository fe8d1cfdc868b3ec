//! Port-arbitration extension (paper §6, listed as future work).
//!
//! The base model dedicates every port to a single segment: "two logical
//! segments will not be mapped onto the same port. In the event of RAM
//! limitation, the model could allow data structures to overlap at the
//! price of adding conflict resolution to the objective function." This
//! module implements exactly that trade:
//!
//! * the global ILP gains one integer *overflow* variable per bank type —
//!   `Σ_d Z_dt·CP_dt − o_t ≤ P_t·I_t`, with `o_t` capped at
//!   `(sharing−1)·P_t·I_t` and priced into the objective at
//!   `penalty_per_port` (the cost of the arbiter logic and serialization);
//! * the detailed packer gets `sharing` virtual slots per physical port
//!   (virtual slot `v` is physical port `v mod P_t`);
//! * validation uses [`ValidationPolicy`] with the raised sharing limit;
//! * the cycle simulator needs **no change**: shared ports serialize
//!   naturally through per-port busy times, so the latency price shows up
//!   as stall cycles.

use crate::cost::{assignment_cost, CostMatrix, CostWeights};
use crate::detailed::{fragment_segment, DetailedFailure, FragSpec, InstanceAllocator};
use crate::global::{MapError, SolverBackend};
use crate::mapping::{DetailedMapping, Fragment, GlobalAssignment, ValidationPolicy};
use crate::preprocess::PreTable;
use gmm_arch::{BankTypeId, Board};
use gmm_design::{Design, SegmentId};
use gmm_ilp::error::MipStatus;
use gmm_ilp::model::{LinExpr, Model, Objective, Sense, VarId};

/// Arbitration configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbitrationOptions {
    /// Maximum segments per physical port (1 = the base model).
    pub sharing: u32,
    /// Objective penalty per oversubscribed port (the conflict-resolution
    /// price of §6).
    pub penalty_per_port: f64,
}

impl Default for ArbitrationOptions {
    fn default() -> Self {
        ArbitrationOptions {
            sharing: 2,
            penalty_per_port: 64.0,
        }
    }
}

impl ArbitrationOptions {
    /// The validation policy matching this configuration.
    pub fn policy(&self) -> ValidationPolicy {
        ValidationPolicy {
            max_port_sharing: self.sharing.max(1),
        }
    }
}

/// Result of an arbitrated global solve.
#[derive(Debug, Clone)]
pub struct ArbitratedAssignment {
    pub global: GlobalAssignment,
    /// Oversubscribed ports per bank type (`o_t`).
    pub overflow: Vec<u32>,
    /// Total penalty paid in the objective.
    pub penalty_paid: f64,
}

/// Solve global mapping with port arbitration allowed.
#[allow(clippy::too_many_arguments)]
pub fn solve_global_arbitrated(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    weights: &CostWeights,
    backend: &SolverBackend,
    arb: &ArbitrationOptions,
) -> Result<ArbitratedAssignment, MapError> {
    let unmappable = pre.unmappable_segments();
    if !unmappable.is_empty() {
        return Err(MapError::Unmappable(unmappable));
    }
    let sharing = arb.sharing.max(1);

    let mut model = Model::new();
    model.set_objective_direction(Objective::Minimize);
    let num_d = design.num_segments();
    let num_t = board.num_types();

    let mut z: Vec<Vec<Option<VarId>>> = vec![vec![None; num_t]; num_d];
    for d in 0..num_d {
        for t in 0..num_t {
            let (did, tid) = (SegmentId(d), BankTypeId(t));
            // With sharing, port feasibility widens accordingly.
            let e = pre.entry(did, tid);
            let bank = board.bank(tid);
            let fits = e.cp() <= bank.total_ports() * sharing
                && e.area_bits() <= bank.total_capacity_bits();
            if !fits {
                continue;
            }
            let cost = matrix.pair(did, tid).weighted(weights);
            z[d][t] = Some(model.add_binary(cost));
        }
        if z[d].iter().all(Option::is_none) {
            return Err(MapError::Unmappable(vec![SegmentId(d)]));
        }
    }

    // Overflow variables.
    let overflow_vars: Vec<VarId> = (0..num_t)
        .map(|t| {
            let bank = board.bank(BankTypeId(t));
            let cap = ((sharing - 1) * bank.total_ports()) as f64;
            model
                .add_integer(0.0, cap, arb.penalty_per_port)
                .expect("bounds valid")
        })
        .collect();

    // Uniqueness.
    for zd in z.iter() {
        let mut expr = LinExpr::new();
        for zv in zd.iter().flatten() {
            expr.push(*zv, 1.0);
        }
        model
            .add_constraint(expr, Sense::Eq, 1.0)
            .expect("uniqueness valid");
    }
    // Ports with overflow: sum Z*CP - o_t <= Pt*It.
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
        expr.push(overflow_vars[t], -1.0);
        model
            .add_constraint(expr, Sense::Le, bank.total_ports() as f64)
            .expect("ports valid");
    }
    // Capacity unchanged.
    for t in 0..num_t {
        let bank = board.bank(BankTypeId(t));
        let mut expr = LinExpr::new();
        for d in 0..num_d {
            if let Some(v) = z[d][t] {
                expr.push(v, pre.entry(SegmentId(d), BankTypeId(t)).area_bits() as f64);
            }
        }
        if expr.is_empty() {
            continue;
        }
        model
            .add_constraint(expr, Sense::Le, bank.total_capacity_bits() as f64)
            .expect("capacity valid");
    }

    let result = backend.solve(&model)?;
    match result.status {
        MipStatus::Optimal | MipStatus::Feasible => {}
        MipStatus::Infeasible => return Err(MapError::Infeasible),
        _ => return Err(MapError::NoSolution),
    }
    let x = result.best_solution.expect("has solution");
    let mut type_of = Vec::with_capacity(num_d);
    for zd in z.iter() {
        let t = (0..num_t)
            .find(|&t| zd[t].is_some_and(|v| x[v.index()] > 0.5))
            .expect("uniqueness");
        type_of.push(BankTypeId(t));
    }
    let overflow: Vec<u32> = overflow_vars
        .iter()
        .map(|v| x[v.index()].round() as u32)
        .collect();
    let penalty_paid = overflow.iter().sum::<u32>() as f64 * arb.penalty_per_port;
    let cost = assignment_cost(matrix, &type_of);
    Ok(ArbitratedAssignment {
        global: GlobalAssignment { type_of, cost },
        overflow,
        penalty_paid,
    })
}

/// Detailed mapping with shared ports: virtual slots `0..P_t*sharing`,
/// physical port = slot mod `P_t`.
pub fn map_detailed_arbitrated(
    design: &Design,
    board: &Board,
    global: &GlobalAssignment,
    arb: &ArbitrationOptions,
) -> Result<DetailedMapping, DetailedFailure> {
    let sharing = arb.sharing.max(1);
    let mut mapping = DetailedMapping::default();
    let by_type = global.segments_by_type(board.num_types());

    for (t, segments) in by_type.iter().enumerate() {
        if segments.is_empty() {
            continue;
        }
        let tid = BankTypeId(t);
        let bank = board.bank(tid);
        let mut specs: Vec<FragSpec> = Vec::new();
        for &d in segments {
            let seg = design.segment(d);
            specs.extend(fragment_segment(bank, d, seg.depth, seg.width));
        }
        specs.sort_by(|a, b| {
            b.ep.cmp(&a.ep)
                .then(b.reserved_bits().cmp(&a.reserved_bits()))
        });

        let mut instances: Vec<InstanceAllocator> = Vec::new();
        for spec in &specs {
            let mut placed = None;
            for (i, inst) in instances.iter_mut().enumerate() {
                if let Some(hit) = inst.try_place(spec) {
                    placed = Some((i as u32, hit));
                    break;
                }
            }
            if placed.is_none() && (instances.len() as u32) < bank.instances {
                let mut inst = InstanceAllocator::with_sharing(bank, sharing);
                if let Some(hit) = inst.try_place(spec) {
                    placed = Some((instances.len() as u32, hit));
                }
                instances.push(inst);
            }
            let Some((instance, (first_slot, base_word))) = placed else {
                return Err(DetailedFailure {
                    bank_type: tid,
                    segments: segments.clone(),
                });
            };
            // Virtual slots -> physical ports (mod P_t), deduplicated.
            let mut ports: Vec<u32> = (first_slot..first_slot + spec.ep)
                .map(|v| v % bank.ports)
                .collect();
            ports.sort_unstable();
            ports.dedup();
            mapping.fragments.push(Fragment {
                segment: spec.segment,
                bank_type: tid,
                instance,
                ports,
                config: spec.config,
                base_word,
                used_depth: spec.used_depth,
                reserved_depth: spec.reserved_depth,
                bit_offset: spec.bit_offset,
                word_offset: spec.word_offset,
            });
        }
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate_detailed_policy;
    use gmm_arch::{BankType, Placement, RamConfig};
    use gmm_design::DesignBuilder;

    /// A board too port-poor for the base model: 1 single-port SRAM for 2
    /// segments.
    fn tight_world() -> (Design, Board) {
        let mut b = DesignBuilder::new("tight");
        b.segment("a", 100, 8).unwrap();
        b.segment("c", 100, 8).unwrap();
        let design = b.build().unwrap();
        let board = Board::new(
            "tiny",
            vec![BankType::new(
                "sram",
                1,
                1,
                vec![RamConfig::new(4096, 8)],
                2,
                2,
                Placement::DirectOffChip,
            )
            .unwrap()],
        )
        .unwrap();
        (design, board)
    }

    fn solve(
        design: &Design,
        board: &Board,
        arb: &ArbitrationOptions,
    ) -> Result<ArbitratedAssignment, MapError> {
        let pre = PreTable::build(design, board);
        let matrix = CostMatrix::build(design, board, &pre);
        solve_global_arbitrated(
            design,
            board,
            &pre,
            &matrix,
            &CostWeights::default(),
            &SolverBackend::default(),
            arb,
        )
    }

    #[test]
    fn base_model_infeasible_arbitration_feasible() {
        let (design, board) = tight_world();
        // Base model: 2 segments, 1 port -> infeasible.
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let base = crate::global::solve_global(
            &design,
            &board,
            &pre,
            &matrix,
            &CostWeights::default(),
            &SolverBackend::default(),
            false,
            &[],
        );
        assert!(matches!(base, Err(MapError::Infeasible)));

        // Arbitrated: feasible with one oversubscribed port.
        let arb = ArbitrationOptions::default();
        let a = solve(&design, &board, &arb).unwrap();
        assert_eq!(a.overflow, vec![1]);
        assert_eq!(a.penalty_paid, arb.penalty_per_port);

        let detailed = map_detailed_arbitrated(&design, &board, &a.global, &arb).unwrap();
        let strict = validate_detailed_policy(
            &design,
            &board,
            &detailed,
            crate::mapping::ValidationPolicy::default(),
        );
        assert!(
            strict
                .iter()
                .any(|v| matches!(v, crate::mapping::Violation::PortShared { .. })),
            "sharing must be visible to the strict policy"
        );
        let relaxed = validate_detailed_policy(&design, &board, &detailed, arb.policy());
        assert!(relaxed.is_empty(), "{relaxed:?}");
    }

    #[test]
    fn no_penalty_when_ports_suffice() {
        let mut b = DesignBuilder::new("loose");
        b.segment("only", 64, 8).unwrap();
        let design = b.build().unwrap();
        let board = tight_world().1;
        let a = solve(&design, &board, &ArbitrationOptions::default()).unwrap();
        assert_eq!(a.overflow, vec![0]);
        assert_eq!(a.penalty_paid, 0.0);
    }

    #[test]
    fn penalty_steers_away_from_sharing() {
        // Two banks: a fast single-port SRAM and a slow DRAM with spare
        // ports. With a huge penalty, the second segment must take the
        // slow bank instead of sharing the fast port.
        let mut b = DesignBuilder::new("steer");
        b.segment("a", 100, 8).unwrap();
        b.segment("c", 100, 8).unwrap();
        let design = b.build().unwrap();
        let board = Board::new(
            "two",
            vec![
                BankType::new(
                    "fast",
                    1,
                    1,
                    vec![RamConfig::new(4096, 8)],
                    1,
                    1,
                    Placement::DirectOffChip,
                )
                .unwrap(),
                BankType::new(
                    "slow",
                    2,
                    1,
                    vec![RamConfig::new(4096, 8)],
                    6,
                    6,
                    Placement::IndirectOffChip { hops: 2 },
                )
                .unwrap(),
            ],
        )
        .unwrap();
        let hi_penalty = ArbitrationOptions {
            sharing: 2,
            penalty_per_port: 1e7,
        };
        let a = solve(&design, &board, &hi_penalty).unwrap();
        assert_eq!(a.overflow, vec![0, 0], "penalty too costly to share");
        let types: Vec<usize> = a.global.type_of.iter().map(|t| t.0).collect();
        assert!(types.contains(&0) && types.contains(&1));

        // With a tiny penalty, both pile onto the fast bank's port.
        let lo_penalty = ArbitrationOptions {
            sharing: 2,
            penalty_per_port: 0.01,
        };
        let a = solve(&design, &board, &lo_penalty).unwrap();
        assert_eq!(a.global.type_of[0].0, 0);
        assert_eq!(a.global.type_of[1].0, 0);
        assert_eq!(a.overflow[0], 1);
    }
}
