//! ILP-based detailed mapper (paper §4.2).
//!
//! The paper develops (but does not reprint) an ILP for detailed mapping
//! whose optimization factors are *reducing on-chip interconnection
//! congestion* and *reducing data-structure fragmentation*. This module
//! implements that formulation: for each bank type, fragments are assigned
//! to concrete instances by a small ILP that
//!
//! * packs each fragment onto exactly one instance,
//! * respects per-instance port and capacity limits,
//! * minimizes the number of instances touched (fragmentation) with a
//!   small tie-break toward low instance indices (which also breaks the
//!   instance-permutation symmetry).
//!
//! Because all instances of a type are identical, any feasible choice has
//! the same global cost; this ILP only polishes secondary quality metrics,
//! exactly as §4.2 prescribes. The constructive mapper remains the
//! fallback when the ILP hits its node budget.

use crate::detailed::{
    fragment_segment, map_detailed, DetailedFailure, FragSpec, InstanceAllocator,
};
use crate::mapping::{DetailedMapping, Fragment, GlobalAssignment};
use crate::preprocess::PreTable;
use gmm_arch::{BankTypeId, Board};
use gmm_design::Design;
use gmm_ilp::branch::{solve_mip, MipOptions};
use gmm_ilp::control::SolveControl;
use gmm_ilp::model::{LinExpr, Model, Objective, Sense};

/// Options for the ILP detailed mapper.
#[derive(Debug, Clone)]
pub struct DetailedIlpOptions {
    /// Per-type node budget before falling back to the constructive
    /// packer.
    pub node_limit: u64,
    /// Extra instances beyond the lower bound made available to the
    /// packing model (small slack keeps the model tiny without cutting off
    /// feasible packings).
    pub instance_slack: u32,
    /// Absolute wall-clock deadline shared by *all* per-type packing
    /// ILPs; the pipeline injects the session deadline here. Each
    /// packing solve derives its time limit from what remains when it
    /// starts, so a board with many bank types cannot overshoot the
    /// session budget by a per-type factor. Expiry falls back to the
    /// constructive packer, like the node budget.
    pub deadline: Option<std::time::Instant>,
    /// Cancellation/progress bundle; the pipeline injects the session's
    /// control so a cancel stops the packing ILP within milliseconds
    /// (and the constructive fallback finishes the job).
    pub control: SolveControl,
}

impl Default for DetailedIlpOptions {
    fn default() -> Self {
        DetailedIlpOptions {
            node_limit: 20_000,
            instance_slack: 3,
            deadline: None,
            control: SolveControl::default(),
        }
    }
}

/// Run ILP-based detailed mapping; falls back to the constructive packer
/// per type when the ILP cannot prove a packing within its budget.
pub fn map_detailed_ilp(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    global: &GlobalAssignment,
    opts: &DetailedIlpOptions,
) -> Result<DetailedMapping, DetailedFailure> {
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

        match pack_with_ilp(
            &specs,
            bank.ports,
            bank.capacity_bits(),
            bank.instances,
            opts,
        ) {
            Some(placement) => {
                realize_packing(tid, bank, &specs, &placement, &mut mapping).map_err(|_| {
                    DetailedFailure {
                        bank_type: tid,
                        segments: segments.clone(),
                    }
                })?;
            }
            None => {
                // Fall back: constructive packer for this type only.
                let sub_global = GlobalAssignment {
                    type_of: global.type_of.clone(),
                    cost: global.cost,
                };
                let sub = map_detailed(design, board, pre, &sub_global)?;
                // Keep only this type's fragments from the fallback.
                mapping
                    .fragments
                    .extend(sub.fragments.into_iter().filter(|f| f.bank_type == tid));
            }
        }
    }
    Ok(mapping)
}

/// Solve the per-type packing ILP. Returns `placement[f] = instance`.
fn pack_with_ilp(
    specs: &[FragSpec],
    ports: u32,
    capacity_bits: u64,
    instances: u32,
    opts: &DetailedIlpOptions,
) -> Option<Vec<u32>> {
    if specs.is_empty() {
        return Some(Vec::new());
    }
    // Lower bound on instances needed: by ports and by bits.
    let total_ep: u64 = specs.iter().map(|s| s.ep as u64).sum();
    let total_bits: u64 = specs.iter().map(FragSpec::reserved_bits).sum();
    let lb = (total_ep.div_ceil(ports as u64)).max(total_bits.div_ceil(capacity_bits)) as u32;
    let avail = (lb + opts.instance_slack).min(instances);
    if avail == 0 {
        return None;
    }

    let mut model = Model::new();
    model.set_objective_direction(Objective::Minimize);
    let nf = specs.len();
    let ni = avail as usize;

    // a[f][i] assignment, u[i] usage.
    let a: Vec<Vec<_>> = (0..nf)
        .map(|f| {
            (0..ni)
                // Tiny index-proportional cost: deterministic tie-break and
                // symmetry reduction.
                .map(|i| model.add_binary(1e-4 * (i as f64) * (1.0 + f as f64 / nf as f64)))
                .collect()
        })
        .collect();
    let u: Vec<_> = (0..ni).map(|_| model.add_binary(1.0)).collect();

    for f in 0..nf {
        let mut expr = LinExpr::new();
        for i in 0..ni {
            expr.push(a[f][i], 1.0);
        }
        model.add_constraint(expr, Sense::Eq, 1.0).ok()?;
    }
    for i in 0..ni {
        // Ports.
        let mut pexpr = LinExpr::new();
        for f in 0..nf {
            pexpr.push(a[f][i], specs[f].ep as f64);
        }
        pexpr.push(u[i], -(ports as f64));
        model.add_constraint(pexpr, Sense::Le, 0.0).ok()?;
        // Bits.
        let mut bexpr = LinExpr::new();
        for f in 0..nf {
            bexpr.push(a[f][i], specs[f].reserved_bits() as f64);
        }
        bexpr.push(u[i], -(capacity_bits as f64));
        model.add_constraint(bexpr, Sense::Le, 0.0).ok()?;
    }
    // Symmetry breaking: u_i >= u_{i+1}.
    for i in 0..ni.saturating_sub(1) {
        let expr = LinExpr::new().add(u[i], 1.0).add(u[i + 1], -1.0);
        model.add_constraint(expr, Sense::Ge, 0.0).ok()?;
    }

    let mip = MipOptions {
        node_limit: Some(opts.node_limit),
        // Re-derive from the absolute deadline at the moment this
        // packing starts: earlier per-type solves already spent budget.
        time_limit: opts
            .deadline
            .map(|dl| dl.saturating_duration_since(std::time::Instant::now())),
        control: opts.control.clone(),
        ..MipOptions::default()
    };
    let result = solve_mip(&model, &mip).ok()?;
    if !result.status.has_solution() {
        return None;
    }
    let x = result.best_solution?;
    let mut placement = vec![0u32; nf];
    for f in 0..nf {
        let i = (0..ni).find(|&i| x[a[f][i].index()] > 0.5)?;
        placement[f] = i as u32;
    }
    Some(placement)
}

/// Turn an instance placement into concrete fragments (ports + aligned
/// base addresses) using the shared per-instance allocator.
fn realize_packing(
    tid: BankTypeId,
    bank: &gmm_arch::BankType,
    specs: &[FragSpec],
    placement: &[u32],
    mapping: &mut DetailedMapping,
) -> Result<(), ()> {
    let ni = placement.iter().copied().max().map_or(0, |m| m + 1) as usize;
    let mut allocators: Vec<InstanceAllocator> =
        (0..ni).map(|_| InstanceAllocator::new(bank)).collect();
    // Within an instance, place big fragments first (buddy discipline).
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|&x, &y| {
        specs[y]
            .ep
            .cmp(&specs[x].ep)
            .then(specs[y].reserved_bits().cmp(&specs[x].reserved_bits()))
    });
    for f in order {
        let inst = placement[f] as usize;
        let (first_port, base_word) = allocators[inst].try_place(&specs[f]).ok_or(())?;
        mapping.fragments.push(Fragment {
            segment: specs[f].segment,
            bank_type: tid,
            instance: inst as u32,
            ports: (first_port..first_port + specs[f].ep).collect(),
            config: specs[f].config,
            base_word,
            used_depth: specs[f].used_depth,
            reserved_depth: specs[f].reserved_depth,
            bit_offset: specs[f].bit_offset,
            word_offset: specs[f].word_offset,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostMatrix, CostWeights};
    use crate::global::{solve_global, SolverBackend};
    use crate::mapping::validate_detailed;
    use gmm_arch::{BankType, Placement, RamConfig};
    use gmm_design::DesignBuilder;

    fn board() -> Board {
        Board::new(
            "b",
            vec![
                BankType::new(
                    "onchip",
                    8,
                    2,
                    vec![
                        RamConfig::new(4096, 1),
                        RamConfig::new(1024, 4),
                        RamConfig::new(512, 8),
                        RamConfig::new(256, 16),
                    ],
                    1,
                    1,
                    Placement::OnChip,
                )
                .unwrap(),
                gmm_arch::devices::off_chip::zbt_sram("sram", 4, 65536, 32),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ilp_detailed_validates_and_minimizes_fragmentation() {
        let mut b = DesignBuilder::new("d");
        for i in 0..6 {
            b.segment(format!("s{i}"), 100 + 50 * i, 4 + (i % 3))
                .unwrap();
        }
        let design = b.build().unwrap();
        let board = board();
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let global = solve_global(
            &design,
            &board,
            &pre,
            &matrix,
            &CostWeights::default(),
            &SolverBackend::default(),
            false,
            &[],
        )
        .unwrap();

        let ilp = map_detailed_ilp(
            &design,
            &board,
            &pre,
            &global,
            &DetailedIlpOptions::default(),
        )
        .unwrap();
        assert!(validate_detailed(&design, &board, &ilp).is_empty());

        let constructive = map_detailed(&design, &board, &pre, &global).unwrap();
        assert!(
            ilp.instances_used() <= constructive.instances_used(),
            "ILP packing should not use more instances: {} vs {}",
            ilp.instances_used(),
            constructive.instances_used()
        );
    }

    #[test]
    fn empty_type_assignments_are_fine() {
        let mut b = DesignBuilder::new("d");
        b.segment("only", 64, 8).unwrap();
        let design = b.build().unwrap();
        let board = board();
        let pre = PreTable::build(&design, &board);
        let global = GlobalAssignment {
            type_of: vec![BankTypeId(0)],
            cost: Default::default(),
        };
        let m = map_detailed_ilp(
            &design,
            &board,
            &pre,
            &global,
            &DetailedIlpOptions::default(),
        )
        .unwrap();
        assert!(!m.fragments.is_empty());
        assert!(validate_detailed(&design, &board, &m).is_empty());
    }
}
