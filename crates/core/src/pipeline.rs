//! The end-to-end mapping pipeline: pre-process → global ILP → detailed
//! mapping, with the paper's retry loop ("the global and detailed mappers
//! need to execute multiple times until a solution is found", §4.1) for
//! the rare ≥3-port packing failures.

use crate::complete::ModelStats;
use crate::cost::{CostBreakdown, CostMatrix, CostWeights};
use crate::detailed::map_detailed;
use crate::detailed_ilp::{map_detailed_ilp, DetailedIlpOptions};
use crate::global::{
    solve_global_hinted_with_stats, MapError, NoGood, SolveTelemetry, SolverBackend,
};
use crate::mapping::{validate_detailed, DetailedMapping, GlobalAssignment};
use crate::preprocess::PreTable;
use gmm_arch::Board;
use gmm_design::Design;
use gmm_ilp::control::SolveControl;
use gmm_ilp::error::{MipStatus, StopReason};
use std::time::{Duration, Instant};

/// Which detailed mapper runs after global mapping.
#[derive(Debug, Clone, Default)]
pub enum DetailedStrategy {
    /// The constructive Figure-2/Figure-3 packer (fast, the default).
    #[default]
    Constructive,
    /// The §4.2 ILP packer minimizing fragmentation, with constructive
    /// fallback.
    Ilp(DetailedIlpOptions),
}

/// Pipeline configuration.
///
/// `#[non_exhaustive]`: construct with [`MapperOptions::new`] (or
/// `Default`) and assign the fields you care about — new knobs are added
/// without a major break. Defaults:
///
/// | field | default |
/// |-------|---------|
/// | `weights` | paper's cost weights |
/// | `backend` | serial branch-and-bound, sparse-LU basis |
/// | `overlap_aware` | `false` |
/// | `detailed` | constructive packer |
/// | `max_retries` | 8 (via `new`; 0 means 1) |
/// | `deadline` | none |
/// | `node_budget` | none |
/// | `control` | no token, no observer |
/// | `warm_hint` | none |
/// | `start_hint` | none |
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct MapperOptions {
    pub weights: CostWeights,
    pub backend: SolverBackend,
    /// Use lifetime-based capacity modification when lifetimes exist.
    pub overlap_aware: bool,
    pub detailed: DetailedStrategy,
    /// Retry budget for the global/detailed loop.
    pub max_retries: usize,
    /// Wall-clock budget over the *whole* pipeline run (all global ILP
    /// retries). The constructive detailed mapper is fast and runs to
    /// completion; the ILP detailed mapper honors the remaining budget
    /// per packing model and falls back to the constructive packer on
    /// expiry.
    pub deadline: Option<Duration>,
    /// Branch-and-bound node budget across all global solves.
    pub node_budget: Option<u64>,
    /// Cooperative cancellation + progress events, threaded into every
    /// ILP hot loop underneath this run.
    pub control: SolveControl,
    /// Warm-start hint: a sibling instance's global assignment
    /// (`warm_hint[d]` = bank type index of segment `d`), offered to the
    /// global ILP as an incumbent seed on every attempt. Validated (and
    /// silently dropped when it does not fit) by the solver — see
    /// [`crate::global::solve_global_hinted_with_stats`].
    pub warm_hint: Option<Vec<u32>>,
    /// Start-only hint: a feasible assignment of *this* instance (same
    /// encoding as `warm_hint`), used on every attempt as the starting
    /// vertex of the global ILP's root LP and never as its incumbent. An
    /// accepted `warm_hint` takes precedence, and a start that is
    /// infeasible for an attempt (e.g. after a no-good cut) is dropped.
    pub start_hint: Option<Vec<u32>>,
}

impl MapperOptions {
    pub fn new() -> Self {
        MapperOptions {
            max_retries: 8,
            ..Default::default()
        }
    }
}

/// Statistics of one pipeline run.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct MapStats {
    pub retries: usize,
    pub global_time: Duration,
    pub detailed_time: Duration,
    /// Branch-and-bound nodes across every global solve attempt.
    pub nodes_explored: u64,
    /// Simplex pivots across every global solve attempt.
    pub lp_iterations: u64,
    /// Nodes that accepted a parent warm-start basis (skipped phase 1).
    pub warm_started_nodes: u64,
    /// Basis refactorizations across every global solve attempt.
    pub refactorizations: u64,
    /// Worst eta-file fill-in any single node LP reached.
    pub eta_nnz_peak: u64,
    /// Global solve attempts whose warm-start hint was accepted as the
    /// starting incumbent.
    pub incumbent_seeded: u64,
    /// MIP status of the last global solve (`None` if none ran).
    pub global_status: Option<MipStatus>,
    /// What stopped the last global solve early, if anything.
    pub stop_reason: Option<StopReason>,
}

impl MapStats {
    fn absorb(&mut self, t: &SolveTelemetry) {
        self.nodes_explored += t.nodes_explored;
        self.lp_iterations += t.lp_iterations;
        self.warm_started_nodes += t.warm_started_nodes;
        self.refactorizations += t.refactorizations;
        self.eta_nnz_peak = self.eta_nnz_peak.max(t.eta_nnz_peak);
        self.incumbent_seeded += t.incumbent_seeded;
        self.global_status = t.status;
        self.stop_reason = t.stop_reason;
    }
}

/// A finished pipeline run with its statistics, whether or not it
/// produced a mapping. This is the facade-facing return shape: deadline
/// and cancellation terminations still carry timing and node counters.
#[derive(Debug)]
pub struct MapRun {
    pub result: Result<MappingOutcome, MapError>,
    /// Always populated, even when `result` is an error.
    pub stats: MapStats,
}

/// A finished mapping: the global type assignment, the concrete detailed
/// placement, and its cost.
#[derive(Debug, Clone)]
pub struct MappingOutcome {
    pub global: GlobalAssignment,
    pub detailed: DetailedMapping,
    pub cost: CostBreakdown,
    pub stats: MapStats,
}

/// The two-phase memory mapper.
#[derive(Debug, Clone, Default)]
pub struct Mapper {
    pub options: MapperOptions,
}

impl Mapper {
    pub fn new(options: MapperOptions) -> Self {
        Mapper { options }
    }

    /// Run the full global → detailed pipeline.
    pub fn map(&self, design: &Design, board: &Board) -> Result<MappingOutcome, MapError> {
        self.map_run(design, board).result
    }

    /// Run with pre-built tables (avoids recomputation in benchmarks).
    pub fn map_with(
        &self,
        design: &Design,
        board: &Board,
        pre: &PreTable,
        matrix: &CostMatrix,
    ) -> Result<MappingOutcome, MapError> {
        self.map_run_with(design, board, pre, matrix).result
    }

    /// Like [`Mapper::map`], but always returns the run's [`MapStats`] —
    /// including on deadline, cancellation, and infeasibility.
    pub fn map_run(&self, design: &Design, board: &Board) -> MapRun {
        self.options.control.phase("preprocess");
        let pre = PreTable::build(design, board);
        let matrix = CostMatrix::build(design, board, &pre);
        self.map_run_with(design, board, &pre, &matrix)
    }

    /// [`Mapper::map_with`] with stats on every exit path.
    pub fn map_run_with(
        &self,
        design: &Design,
        board: &Board,
        pre: &PreTable,
        matrix: &CostMatrix,
    ) -> MapRun {
        let start = Instant::now();
        let deadline = self.options.deadline.map(|d| start + d);
        let mut no_goods: Vec<NoGood> = Vec::new();
        let mut stats = MapStats::default();
        let max_retries = self.options.max_retries.max(1);
        let control = &self.options.control;

        for attempt in 0..max_retries {
            control.phase(if attempt == 0 { "global" } else { "retry" });
            if control.is_cancelled() {
                return MapRun {
                    result: Err(MapError::Cancelled),
                    stats,
                };
            }
            // Tighten the engine limits to what remains of the run's
            // budget: each retry gets strictly less time/fewer nodes.
            let mut backend = self.options.backend.clone();
            let time_left = match deadline {
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        return MapRun {
                            result: Err(MapError::Deadline),
                            stats,
                        };
                    }
                    Some(dl - now)
                }
                None => None,
            };
            let nodes_left = self
                .options
                .node_budget
                .map(|b| b.saturating_sub(stats.nodes_explored).max(1));
            backend.apply_control(time_left, nodes_left, control);

            let t0 = Instant::now();
            let solved = solve_global_hinted_with_stats(
                design,
                board,
                pre,
                matrix,
                &self.options.weights,
                &backend,
                self.options.overlap_aware,
                &no_goods,
                self.options.warm_hint.as_deref(),
                self.options.start_hint.as_deref(),
            );
            stats.global_time += t0.elapsed();
            let global = match solved {
                Ok((global, telemetry)) => {
                    stats.absorb(&telemetry);
                    global
                }
                Err((e, telemetry)) => {
                    stats.absorb(&telemetry);
                    return MapRun {
                        result: Err(e),
                        stats,
                    };
                }
            };
            // Node budget exhausted without a usable assignment never
            // reaches here; exhausted *with* one proceeds to detailed.

            control.phase("detailed");
            let t1 = Instant::now();
            let detailed_result = match &self.options.detailed {
                DetailedStrategy::Constructive => map_detailed(design, board, pre, &global),
                DetailedStrategy::Ilp(opts) => {
                    // The packing ILPs honor the session's absolute
                    // deadline and cancel token; expiry or cancellation
                    // falls back to the constructive packer, so the
                    // phase still terminates promptly and validly.
                    let mut opts = opts.clone();
                    opts.deadline = match (opts.deadline, deadline) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    if opts.control.cancel.is_none() {
                        opts.control.cancel = control.cancel.clone();
                    }
                    if opts.control.observer.is_none() {
                        opts.control.observer = control.observer.clone();
                    }
                    map_detailed_ilp(design, board, pre, &global, &opts)
                }
            };
            stats.detailed_time += t1.elapsed();

            match detailed_result {
                Ok(detailed) => {
                    stats.retries = attempt;
                    debug_assert!(
                        validate_detailed(design, board, &detailed).is_empty(),
                        "detailed mapper produced an invalid mapping"
                    );
                    // A deadline or cancel that fired during an ILP
                    // detailed phase made this packing a function of
                    // wall-clock timing (truncated incumbent or
                    // deadline-induced constructive fallback). Surface
                    // it in stop_reason so the facade classifies the
                    // run DeadlineExceeded/Cancelled and the service
                    // never caches a nondeterministic payload. The
                    // constructive strategy is a pure function of the
                    // instance, so it needs no such guard.
                    if matches!(self.options.detailed, DetailedStrategy::Ilp(_))
                        && stats.stop_reason.is_none()
                    {
                        if control.is_cancelled() {
                            stats.stop_reason = Some(StopReason::Cancelled);
                        } else if deadline.is_some_and(|dl| Instant::now() >= dl) {
                            stats.stop_reason = Some(StopReason::Deadline);
                        }
                    }
                    let cost = global.cost;
                    let stats_clone = stats.clone();
                    return MapRun {
                        result: Ok(MappingOutcome {
                            global,
                            detailed,
                            cost,
                            stats,
                        }),
                        stats: stats_clone,
                    };
                }
                Err(failure) => {
                    // Paper §4.1: re-run global mapping with the failing
                    // combination excluded.
                    no_goods.push(NoGood {
                        bank_type: failure.bank_type,
                        segments: failure.segments,
                    });
                }
            }
        }
        MapRun {
            result: Err(MapError::DetailedFailed {
                retries: max_retries,
            }),
            stats,
        }
    }

    /// Run the **complete** one-step formulation on the same inputs
    /// (baseline for Table 3 comparisons).
    pub fn map_complete(
        &self,
        design: &Design,
        board: &Board,
    ) -> Result<(GlobalAssignment, ModelStats), MapError> {
        self.map_complete_run(design, board)
            .map(|(assignment, stats, _)| (assignment, stats))
    }

    /// [`Mapper::map_complete`] plus the engine's [`SolveTelemetry`], so
    /// callers can tell a proven optimum from a limit-truncated
    /// incumbent.
    pub fn map_complete_run(
        &self,
        design: &Design,
        board: &Board,
    ) -> Result<(GlobalAssignment, ModelStats, SolveTelemetry), MapError> {
        let pre = PreTable::build(design, board);
        let matrix = CostMatrix::build(design, board, &pre);
        crate::complete::solve_complete_with_stats(
            design,
            board,
            &pre,
            &matrix,
            &self.options.weights,
            &self.options.backend,
            self.options.overlap_aware,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                        RamConfig::new(2048, 2),
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

    fn design(n: usize) -> Design {
        let mut b = DesignBuilder::new("d");
        for i in 0..n {
            b.segment(format!("s{i}"), 50 + 37 * i as u32, 1 + (i % 9) as u32)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn pipeline_end_to_end() {
        let mapper = Mapper::new(MapperOptions::new());
        let out = mapper.map(&design(8), &board()).unwrap();
        assert_eq!(out.global.type_of.len(), 8);
        assert!(!out.detailed.fragments.is_empty());
        assert_eq!(out.stats.retries, 0, "dual-port boards never retry");
        let violations = validate_detailed(&design(8), &board(), &out.detailed);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn pipeline_with_ilp_detailed() {
        let mut opts = MapperOptions::new();
        opts.detailed = DetailedStrategy::Ilp(DetailedIlpOptions::default());
        let mapper = Mapper::new(opts);
        let out = mapper.map(&design(6), &board()).unwrap();
        let violations = validate_detailed(&design(6), &board(), &out.detailed);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn pipeline_retry_on_three_port_bank() {
        // A 3-port bank where the Figure-3 accounting admits assignments
        // the packer cannot realize: the pipeline must retry with no-goods
        // and land on a feasible split (here: spill to the second type).
        let tri = BankType::new(
            "tri",
            2,
            3,
            vec![RamConfig::new(16, 8)],
            1,
            1,
            Placement::OnChip,
        )
        .unwrap();
        let spill = gmm_arch::devices::off_chip::zbt_sram("spill", 4, 65536, 32);
        let board = Board::new("tri-board", vec![tri, spill]).unwrap();
        // Three 8x8 segments: EP=2 each on the tri bank (total 6 = port
        // budget), but three EP-2 fragments cannot pack into two 3-port
        // instances.
        let mut b = DesignBuilder::new("d");
        for i in 0..3 {
            b.segment(format!("s{i}"), 8, 8).unwrap();
        }
        let design = b.build().unwrap();
        let mapper = Mapper::new(MapperOptions::new());
        let out = mapper.map(&design, &board).unwrap();
        assert!(out.stats.retries >= 1, "must have retried");
        let violations = validate_detailed(&design, &board, &out.detailed);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn complete_pipeline_agrees() {
        let mapper = Mapper::new(MapperOptions::new());
        let d = design(5);
        let two = mapper.map(&d, &board()).unwrap();
        let (one, _) = mapper.map_complete(&d, &board()).unwrap();
        let w = CostWeights::default();
        assert!(
            (two.cost.weighted(&w) - one.cost.weighted(&w)).abs() < 1e-6,
            "two-phase {} vs complete {}",
            two.cost.weighted(&w),
            one.cost.weighted(&w)
        );
    }
}
