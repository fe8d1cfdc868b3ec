//! # gmm-heur — greedy heuristic mapper and portfolio solve modes
//!
//! The ILP mapper in `gmm-core` answers every logical-RAM→physical-bank
//! instance with a proof of optimality, but at production traffic most
//! instances are easy: a deterministic greedy first-fit in the style of
//! rapid-map's geometric-mean-area heuristic answers them in microseconds.
//! This crate provides that fast path plus the [`SolveMode`] enum the rest
//! of the stack (api → service → CLI) threads through:
//!
//! * [`SolveMode::Ilp`] — the exact pipeline; the greedy assignment only
//!   starts the root LP at its vertex (`MipOptions.root_start`).
//! * [`SolveMode::Heuristic`] — greedy only; feasible, not proved optimal.
//! * [`SolveMode::Portfolio`] — greedy first, its assignment installed as
//!   the branch-and-bound incumbent (`MipOptions.incumbent_seed`), then the
//!   ILP proves optimality or hits the deadline *with a feasible answer in
//!   hand* instead of empty-handed.
//!
//! The greedy mapper mirrors the global model's constraints exactly
//! (per-type port budget `Σ cp(d,t) ≤ P_t·I_t`, per-type capacity
//! `Σ area(d,t) ≤ C_t` per concurrency clique), so every assignment it
//! returns is a valid candidate for the engine's incumbent feasibility
//! check. It never panics: the result is a feasible mapping or a
//! structured [`HeurInfeasible`].
//!
//! ## Algorithm
//!
//! 1. Reject instances with pre-table-unmappable segments.
//! 2. Sort segments by a hardness score — bits desc, then worst-case port
//!    consumption desc, then width desc (ties by index) — so the hardest
//!    RAMs claim banks first.
//! 3. First-fit each segment onto its cheapest feasible bank type
//!    (candidates ordered by weighted pair cost) whose remaining port and
//!    clique-capacity budgets accept it.
//! 4. A bounded local-improvement pass: single-segment relocations to a
//!    cheaper type, then pairwise swaps, repeated `improvement_passes`
//!    times or until a fixpoint.

use gmm_arch::{BankTypeId, Board};
use gmm_core::cost::assignment_cost;
use gmm_core::detailed::DetailedFailure;
use gmm_core::{
    map_detailed, CostMatrix, CostWeights, DetailedMapping, GlobalAssignment, PreTable,
};
use gmm_design::{Design, SegmentId};
use serde::{Deserialize, Serialize};

/// Which engine(s) a solve runs, threaded end to end: `MapRequest` →
/// mapsrv `JobConfig` (where it joins the content-addressed cache key) →
/// CLI `--solve-mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolveMode {
    /// Exact ILP pipeline (the default). The greedy assignment, when it
    /// exists, serves only as the root LP's starting vertex
    /// (`MipOptions.root_start`), which skips phase 1 there. It is never
    /// the incumbent: the report shows no seed and no heuristic objective,
    /// and the answer is the same optimum as a cold start, though a tie
    /// between equal-cost optima may resolve differently.
    #[default]
    Ilp,
    /// Greedy heuristic only: microsecond answers, `Feasible` termination,
    /// no optimality proof.
    Heuristic,
    /// Heuristic first, ILP second with the heuristic assignment seeded as
    /// the branch-and-bound incumbent.
    Portfolio,
}

impl SolveMode {
    /// Stable lowercase CLI/wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            SolveMode::Ilp => "ilp",
            SolveMode::Heuristic => "heuristic",
            SolveMode::Portfolio => "portfolio",
        }
    }

    /// Parse a token produced by [`SolveMode::as_str`].
    pub fn from_name(name: &str) -> Option<SolveMode> {
        match name {
            "ilp" => Some(SolveMode::Ilp),
            "heuristic" => Some(SolveMode::Heuristic),
            "portfolio" => Some(SolveMode::Portfolio),
            _ => None,
        }
    }

    /// All modes, in token order (for CLI help and sweeps).
    pub fn all() -> [SolveMode; 3] {
        [SolveMode::Ilp, SolveMode::Heuristic, SolveMode::Portfolio]
    }
}

impl std::fmt::Display for SolveMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Knobs of the greedy mapper.
///
/// Defaults (via [`Default`]):
///
/// | field                | default | meaning |
/// |----------------------|---------|---------|
/// | `weights`            | `CostWeights::default()` | objective weights for candidate ordering and the reported objective |
/// | `overlap_aware`      | `false` | capacity per concurrency clique instead of globally (must match the ILP run it seeds) |
/// | `improvement_passes` | `2`     | bounded relocate+swap improvement rounds (0 = pure first-fit) |
/// | `detailed_retries`   | `8`     | forbidden-pair retries when detailed placement rejects an assignment |
/// | `swap_limit`         | `96`    | skip the O(n²) swap scan above this many segments |
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct HeurOptions {
    /// Objective weights (paper §4.1.3) for candidate ordering and the
    /// reported objective.
    pub weights: CostWeights,
    /// Enforce capacity per concurrency clique (paper §4.1.2 note) instead
    /// of one global capacity constraint. Must match the ILP run the
    /// result seeds, or the incumbent check will reject it.
    pub overlap_aware: bool,
    /// Local-improvement rounds after first-fit; each round is one
    /// relocation sweep plus one swap sweep. 0 disables improvement.
    pub improvement_passes: usize,
    /// How many times to retry with a forbidden (segment, bank-type) pair
    /// when the detailed mapper rejects a greedy assignment.
    pub detailed_retries: usize,
    /// Largest segment count for which the quadratic swap sweep runs.
    pub swap_limit: usize,
}

impl Default for HeurOptions {
    fn default() -> Self {
        HeurOptions {
            weights: CostWeights::default(),
            overlap_aware: false,
            improvement_passes: 2,
            detailed_retries: 8,
            swap_limit: 96,
        }
    }
}

impl HeurOptions {
    /// Options with the documented defaults.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Structured failure of the greedy mapper. The greedy not finding a fit
/// is *not* an infeasibility proof — the ILP may still succeed — and the
/// messages say so.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeurInfeasible {
    /// Segments no bank type can hold at all (a true infeasibility, shared
    /// with the ILP's pre-table check).
    Unmappable(Vec<SegmentId>),
    /// First-fit exhausted every candidate type for this segment. Not a
    /// proof; retry with `SolveMode::Ilp`.
    NoFit {
        /// The segment that would not fit.
        segment: SegmentId,
        /// How many segments had been placed when the search died.
        placed: usize,
    },
    /// Every greedy assignment the retry budget allowed was rejected by
    /// the detailed (instance-level) mapper.
    DetailedFailed {
        /// Retries consumed before giving up.
        retries: usize,
    },
}

impl std::fmt::Display for HeurInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeurInfeasible::Unmappable(segs) => {
                write!(f, "{} segment(s) fit no bank type at all", segs.len())
            }
            HeurInfeasible::NoFit { segment, placed } => write!(
                f,
                "greedy found no bank with spare ports/capacity for segment {} after placing {placed} \
                 (not an infeasibility proof; try solve mode `ilp`)",
                segment.0
            ),
            HeurInfeasible::DetailedFailed { retries } => write!(
                f,
                "detailed placement rejected every greedy assignment within {retries} retries \
                 (not an infeasibility proof; try solve mode `ilp`)"
            ),
        }
    }
}

impl std::error::Error for HeurInfeasible {}

/// A greedy global assignment: the seed the portfolio hands the ILP.
#[derive(Debug, Clone)]
pub struct HeurSolution {
    /// Per-segment bank-type choice with its cost breakdown.
    pub assignment: GlobalAssignment,
    /// Weighted objective under the options' cost weights.
    pub objective: f64,
    /// Relocations + swaps the improvement pass applied.
    pub moves: u64,
}

/// A fully realized heuristic mapping (global + detailed).
#[derive(Debug, Clone)]
pub struct HeurMapping {
    /// Per-segment bank-type choice with its cost breakdown.
    pub assignment: GlobalAssignment,
    /// Instance-level placement accepted by the detailed mapper.
    pub detailed: DetailedMapping,
    /// Weighted objective under the options' cost weights.
    pub objective: f64,
    /// Relocations + swaps the improvement pass applied.
    pub moves: u64,
    /// Forbidden-pair retries consumed before the detailed mapper accepted.
    pub detailed_retries: usize,
}

/// Port/capacity ledgers mirroring the global model's constraints.
struct Budgets<'a> {
    board: &'a Board,
    pre: &'a PreTable,
    /// Ports consumed per bank type (global constraint, like `ports[t]`).
    used_ports: Vec<u32>,
    /// Bits consumed per bank type per clique (like `cap[t][ci]`).
    used_area: Vec<Vec<u64>>,
    /// Clique indices each segment belongs to.
    cliques_of: Vec<Vec<usize>>,
}

impl<'a> Budgets<'a> {
    fn new(design: &Design, board: &'a Board, pre: &'a PreTable, overlap_aware: bool) -> Self {
        let num_d = design.num_segments();
        let cliques: Vec<Vec<SegmentId>> = if overlap_aware {
            design.concurrency_cliques()
        } else {
            vec![(0..num_d).map(SegmentId).collect()]
        };
        let mut cliques_of = vec![Vec::new(); num_d];
        for (ci, clique) in cliques.iter().enumerate() {
            for &d in clique {
                cliques_of[d.0].push(ci);
            }
        }
        Budgets {
            board,
            pre,
            used_ports: vec![0; board.num_types()],
            used_area: vec![vec![0; cliques.len()]; board.num_types()],
            cliques_of,
        }
    }

    fn fits(&self, d: SegmentId, t: BankTypeId) -> bool {
        if !self.pre.is_feasible(d, t) {
            return false;
        }
        let entry = self.pre.entry(d, t);
        let bank = self.board.bank(t);
        if self.used_ports[t.0] + entry.cp() > bank.total_ports() {
            return false;
        }
        let cap = bank.total_capacity_bits();
        self.cliques_of[d.0]
            .iter()
            .all(|&ci| self.used_area[t.0][ci] + entry.area_bits() <= cap)
    }

    fn place(&mut self, d: SegmentId, t: BankTypeId) {
        let entry = self.pre.entry(d, t);
        self.used_ports[t.0] += entry.cp();
        for &ci in &self.cliques_of[d.0] {
            self.used_area[t.0][ci] += entry.area_bits();
        }
    }

    fn remove(&mut self, d: SegmentId, t: BankTypeId) {
        let entry = self.pre.entry(d, t);
        self.used_ports[t.0] -= entry.cp();
        for &ci in &self.cliques_of[d.0] {
            self.used_area[t.0][ci] -= entry.area_bits();
        }
    }
}

const IMPROVE_EPS: f64 = 1e-12;

/// Greedy global assignment using caller-supplied preprocess tables.
///
/// `forbidden` pairs are excluded from the candidate lists — the detailed
/// retry loop in [`greedy_map_with`] uses this like the ILP's no-good cuts.
pub fn greedy_solve_with(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    options: &HeurOptions,
    forbidden: &[(SegmentId, BankTypeId)],
) -> Result<HeurSolution, HeurInfeasible> {
    let unmappable = pre.unmappable_segments();
    if !unmappable.is_empty() {
        return Err(HeurInfeasible::Unmappable(unmappable));
    }

    let num_d = design.num_segments();
    let num_t = board.num_types();
    let is_forbidden = |d: SegmentId, t: BankTypeId| forbidden.contains(&(d, t));

    // Hardness order: bits desc, worst-case port consumption desc, width
    // desc, index asc. Hard segments pick first, while banks are empty.
    let mut order: Vec<SegmentId> = (0..num_d).map(SegmentId).collect();
    let hardness = |d: SegmentId| {
        let seg = design.segment(d);
        let cp_max = (0..num_t)
            .map(BankTypeId)
            .filter(|&t| pre.is_feasible(d, t))
            .map(|t| pre.entry(d, t).cp())
            .max()
            .unwrap_or(0);
        (seg.bits(), cp_max, seg.width)
    };
    order.sort_by(|&a, &b| hardness(b).cmp(&hardness(a)).then(a.0.cmp(&b.0)));

    // Candidate types per segment: weighted pair cost asc, type index asc.
    let weighted = |d: SegmentId, t: BankTypeId| matrix.pair(d, t).weighted(&options.weights);
    let candidates: Vec<Vec<BankTypeId>> = (0..num_d)
        .map(|d| {
            let d = SegmentId(d);
            let mut cands: Vec<BankTypeId> = (0..num_t)
                .map(BankTypeId)
                .filter(|&t| pre.is_feasible(d, t) && !is_forbidden(d, t))
                .collect();
            cands.sort_by(|&a, &b| {
                weighted(d, a)
                    .partial_cmp(&weighted(d, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            cands
        })
        .collect();

    // First-fit in hardness order.
    let mut budgets = Budgets::new(design, board, pre, options.overlap_aware);
    let mut assign: Vec<Option<BankTypeId>> = vec![None; num_d];
    for (placed, &d) in order.iter().enumerate() {
        let slot = candidates[d.0]
            .iter()
            .copied()
            .find(|&t| budgets.fits(d, t));
        match slot {
            Some(t) => {
                budgets.place(d, t);
                assign[d.0] = Some(t);
            }
            None => return Err(HeurInfeasible::NoFit { segment: d, placed }),
        }
    }
    let mut assign: Vec<BankTypeId> = assign
        .into_iter()
        .map(|t| t.expect("all segments placed above"))
        .collect();

    // Bounded local improvement: relocations, then swaps.
    let mut moves = 0u64;
    for _ in 0..options.improvement_passes {
        let mut improved = false;

        for &d in &order {
            let cur = assign[d.0];
            let cur_cost = weighted(d, cur);
            budgets.remove(d, cur);
            let better = candidates[d.0].iter().copied().find(|&t| {
                t != cur && weighted(d, t) + IMPROVE_EPS < cur_cost && budgets.fits(d, t)
            });
            match better {
                Some(t) => {
                    budgets.place(d, t);
                    assign[d.0] = t;
                    moves += 1;
                    improved = true;
                }
                None => budgets.place(d, cur),
            }
        }

        if num_d <= options.swap_limit {
            for i in 0..num_d {
                for j in i + 1..num_d {
                    let (di, dj) = (SegmentId(i), SegmentId(j));
                    let (ti, tj) = (assign[i], assign[j]);
                    if ti == tj || is_forbidden(di, tj) || is_forbidden(dj, ti) {
                        continue;
                    }
                    let delta =
                        weighted(di, tj) + weighted(dj, ti) - weighted(di, ti) - weighted(dj, tj);
                    if delta >= -IMPROVE_EPS {
                        continue;
                    }
                    if !pre.is_feasible(di, tj) || !pre.is_feasible(dj, ti) {
                        continue;
                    }
                    budgets.remove(di, ti);
                    budgets.remove(dj, tj);
                    if budgets.fits(di, tj) {
                        budgets.place(di, tj);
                        if budgets.fits(dj, ti) {
                            budgets.place(dj, ti);
                            assign[i] = tj;
                            assign[j] = ti;
                            moves += 1;
                            improved = true;
                            continue;
                        }
                        budgets.remove(di, tj);
                    }
                    // Rollback.
                    budgets.place(di, ti);
                    budgets.place(dj, tj);
                }
            }
        }

        if !improved {
            break;
        }
    }

    let cost = assignment_cost(matrix, &assign);
    let objective = cost.weighted(&options.weights);
    Ok(HeurSolution {
        assignment: GlobalAssignment {
            type_of: assign,
            cost,
        },
        objective,
        moves,
    })
}

/// Greedy global assignment, building the preprocess tables internally.
///
/// ```
/// use gmm_design::DesignBuilder;
/// use gmm_heur::{greedy_solve, HeurOptions};
///
/// let mut b = DesignBuilder::new("quick");
/// b.segment("coeffs", 128, 12).unwrap();
/// b.segment("frame", 4096, 8).unwrap();
/// let design = b.build().unwrap();
/// let board = gmm_arch::Board::prototyping("XCV300", 2).unwrap();
///
/// let sol = greedy_solve(&design, &board, &HeurOptions::new()).unwrap();
/// assert_eq!(sol.assignment.type_of.len(), design.num_segments());
/// assert!(sol.objective.is_finite());
/// ```
pub fn greedy_solve(
    design: &Design,
    board: &Board,
    options: &HeurOptions,
) -> Result<HeurSolution, HeurInfeasible> {
    let pre = PreTable::build(design, board);
    let matrix = CostMatrix::build(design, board, &pre);
    greedy_solve_with(design, board, &pre, &matrix, options, &[])
}

/// Greedy global assignment realized through the detailed (instance-level)
/// mapper, retrying with forbidden pairs when placement rejects it.
pub fn greedy_map_with(
    design: &Design,
    board: &Board,
    pre: &PreTable,
    matrix: &CostMatrix,
    options: &HeurOptions,
) -> Result<HeurMapping, HeurInfeasible> {
    let mut forbidden: Vec<(SegmentId, BankTypeId)> = Vec::new();
    for retry in 0..=options.detailed_retries {
        let sol = match greedy_solve_with(design, board, pre, matrix, options, &forbidden) {
            Ok(sol) => sol,
            Err(HeurInfeasible::NoFit { .. }) if retry > 0 => {
                // Forbidding pairs walked us into a corner; the *original*
                // greedy assignment existed, so report the detailed failure.
                return Err(HeurInfeasible::DetailedFailed { retries: retry });
            }
            Err(e) => return Err(e),
        };
        match map_detailed(design, board, pre, &sol.assignment) {
            Ok(detailed) => {
                return Ok(HeurMapping {
                    objective: sol.objective,
                    assignment: sol.assignment,
                    detailed,
                    moves: sol.moves,
                    detailed_retries: retry,
                });
            }
            Err(DetailedFailure {
                bank_type,
                segments,
            }) => {
                // Like the pipeline's no-good cut, but cheaper: ban the
                // hardest member of the failing group from that type.
                let worst = segments
                    .iter()
                    .copied()
                    .max_by_key(|&d| (design.segment(d).bits(), std::cmp::Reverse(d.0)))
                    .unwrap_or(SegmentId(0));
                forbidden.push((worst, bank_type));
            }
        }
    }
    Err(HeurInfeasible::DetailedFailed {
        retries: options.detailed_retries,
    })
}

/// Greedy global + detailed mapping, building preprocess tables internally.
///
/// ```
/// use gmm_design::DesignBuilder;
/// use gmm_heur::{greedy_map, HeurOptions};
///
/// let mut b = DesignBuilder::new("quick");
/// b.segment("coeffs", 128, 12).unwrap();
/// b.segment("frame", 4096, 8).unwrap();
/// let design = b.build().unwrap();
/// let board = gmm_arch::Board::prototyping("XCV300", 2).unwrap();
///
/// let m = greedy_map(&design, &board, &HeurOptions::new()).unwrap();
/// assert_eq!(m.assignment.type_of.len(), design.num_segments());
/// // The detailed placement is accepted by the shared validator.
/// assert!(gmm_core::validate_detailed(&design, &board, &m.detailed).is_empty());
/// ```
pub fn greedy_map(
    design: &Design,
    board: &Board,
    options: &HeurOptions,
) -> Result<HeurMapping, HeurInfeasible> {
    let pre = PreTable::build(design, board);
    let matrix = CostMatrix::build(design, board, &pre);
    greedy_map_with(design, board, &pre, &matrix, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_design::DesignBuilder;

    fn small_design() -> Design {
        let mut b = DesignBuilder::new("t");
        b.segment("a", 128, 12).unwrap();
        b.segment("b", 4096, 8).unwrap();
        b.segment("c", 64, 4).unwrap();
        b.build().unwrap()
    }

    fn check_budgets(
        design: &Design,
        board: &Board,
        pre: &PreTable,
        assign: &[BankTypeId],
        overlap_aware: bool,
    ) {
        let mut b = Budgets::new(design, board, pre, overlap_aware);
        for (d, &t) in assign.iter().enumerate() {
            let d = SegmentId(d);
            assert!(pre.is_feasible(d, t), "infeasible pair in assignment");
            assert!(b.fits(d, t), "assignment violates a port/capacity budget");
            b.place(d, t);
        }
    }

    #[test]
    fn greedy_is_deterministic_and_feasible() {
        let design = small_design();
        let board = Board::prototyping("XCV300", 2).unwrap();
        let a = greedy_solve(&design, &board, &HeurOptions::new()).unwrap();
        let b = greedy_solve(&design, &board, &HeurOptions::new()).unwrap();
        assert_eq!(a.assignment.type_of, b.assignment.type_of);
        assert_eq!(a.objective, b.objective);
        let pre = PreTable::build(&design, &board);
        check_budgets(&design, &board, &pre, &a.assignment.type_of, false);
    }

    #[test]
    fn greedy_objective_matches_assignment_cost() {
        let design = small_design();
        let board = Board::prototyping("XCV300", 2).unwrap();
        let opts = HeurOptions::new();
        let sol = greedy_solve(&design, &board, &opts).unwrap();
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let recomputed = assignment_cost(&matrix, &sol.assignment.type_of).weighted(&opts.weights);
        assert!((sol.objective - recomputed).abs() < 1e-9);
    }

    #[test]
    fn improvement_never_worsens_first_fit() {
        let design = small_design();
        let board = Board::prototyping("XCV300", 2).unwrap();
        let mut raw = HeurOptions::new();
        raw.improvement_passes = 0;
        let first_fit = greedy_solve(&design, &board, &raw).unwrap();
        let improved = greedy_solve(&design, &board, &HeurOptions::new()).unwrap();
        assert!(improved.objective <= first_fit.objective + 1e-9);
    }

    #[test]
    fn detailed_realization_validates() {
        let design = small_design();
        let board = Board::prototyping("XCV300", 2).unwrap();
        let m = greedy_map(&design, &board, &HeurOptions::new()).unwrap();
        let violations = gmm_core::validate_detailed(&design, &board, &m.detailed);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn unmappable_segment_is_reported() {
        let mut b = DesignBuilder::new("huge");
        b.segment("ok", 64, 4).unwrap();
        // Deeper*wider than any bank type on the board can hold.
        b.segment("monster", 1 << 24, 64).unwrap();
        let design = b.build().unwrap();
        let board = Board::prototyping("XCV300", 1).unwrap();
        match greedy_solve(&design, &board, &HeurOptions::new()) {
            Err(HeurInfeasible::Unmappable(segs)) => assert_eq!(segs, vec![SegmentId(1)]),
            other => panic!("expected Unmappable, got {other:?}"),
        }
    }

    #[test]
    fn port_exhaustion_reports_no_fit_not_panic() {
        // One single-ported SRAM instance, but three RAMs that each need a
        // port: per-type port budget runs dry.
        use gmm_arch::{BankType, Placement, RamConfig};
        let bank = BankType::new(
            "lone-sram",
            1,
            1,
            vec![RamConfig::new(262_144, 32)],
            2,
            2,
            Placement::DirectOffChip,
        )
        .unwrap();
        let board = Board::new("lone", vec![bank]).unwrap();
        let mut b = DesignBuilder::new("three");
        b.segment("a", 512, 8).unwrap();
        b.segment("b", 512, 8).unwrap();
        b.segment("c", 512, 8).unwrap();
        let design = b.build().unwrap();
        match greedy_solve(&design, &board, &HeurOptions::new()) {
            Err(HeurInfeasible::NoFit { .. }) => {}
            other => panic!("expected NoFit, got {other:?}"),
        }
    }

    #[test]
    fn stream_instances_all_solve_and_respect_budgets() {
        use gmm_workloads::{stream_instances, StreamSpec};
        let opts = HeurOptions::new();
        for inst in stream_instances(StreamSpec::default()).take(20) {
            let m = greedy_map(&inst.design, &inst.board, &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
            let pre = PreTable::build(&inst.design, &inst.board);
            check_budgets(
                &inst.design,
                &inst.board,
                &pre,
                &m.assignment.type_of,
                false,
            );
            let violations = gmm_core::validate_detailed(&inst.design, &inst.board, &m.detailed);
            assert!(
                violations.is_empty(),
                "{}: detailed invalid: {violations:?}",
                inst.name
            );
        }
    }

    #[test]
    fn solve_mode_tokens_round_trip() {
        for mode in SolveMode::all() {
            assert_eq!(SolveMode::from_name(mode.as_str()), Some(mode));
        }
        assert_eq!(SolveMode::from_name("nope"), None);
        assert_eq!(SolveMode::default(), SolveMode::Ilp);
    }
}
