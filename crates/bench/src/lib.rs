//! Shared harness code for the per-table/per-figure benchmarks.
//!
//! Every table and figure of the paper's evaluation has a Criterion bench
//! target in `benches/`:
//!
//! | paper artifact | bench target |
//! |----------------|--------------|
//! | Table 1 (device catalog)        | `table1_catalog` |
//! | Table 2 (allocation options)    | `table2_allocations` |
//! | Figure 2 (worked example)       | `fig2_preprocess` |
//! | Figure 3 (`consumed_ports`)     | `fig3_consumed_ports` |
//! | Table 3 (solve times)           | `table3_solve_times` |
//! | Figure 4 (scaling plot)         | `fig4_scaling` |
//! | detailed-mapper and pre-processing ablations | `ablation_solvers` |

use gmm_core::pipeline::{Mapper, MapperOptions};
use gmm_core::{CostWeights, SolverBackend};
use gmm_ilp::branch::MipOptions;
use gmm_ilp::PricingRule;
use gmm_workloads::{table3_board, table3_design, Table3Point};
use std::time::{Duration, Instant};

pub mod trajectory;

pub use trajectory::{
    run_trajectory, run_trajectory_with, BenchReport, RuleTrajectory, TrajectoryConfig,
    BENCH_SCHEMA,
};

/// Pricing rule for the Criterion targets, from the `GMM_LP_PRICING`
/// environment variable (`dantzig` / `partial` / `devex`; unset means
/// `dantzig`). Lets one bench binary produce per-rule ablation numbers:
/// `GMM_LP_PRICING=devex cargo bench --bench table3_solve_times`.
/// Panics on an unrecognized value — a silently-defaulted typo would
/// record an ablation under the wrong label.
pub fn pricing_from_env() -> PricingRule {
    match std::env::var("GMM_LP_PRICING") {
        Err(_) => PricingRule::Dantzig,
        Ok(name) => PricingRule::from_name(&name).unwrap_or_else(|| {
            panic!("GMM_LP_PRICING must be `dantzig`, `partial`, or `devex`, got `{name}`")
        }),
    }
}

/// Result of running one Table 3 point through both formulations.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    pub point: Table3Point,
    pub complete_secs: f64,
    pub global_secs: f64,
    /// The complete solve hit the wall-clock cap before proving
    /// optimality.
    pub complete_capped: bool,
    /// Both formulations reached provably-equal optimal costs.
    pub costs_match: Option<bool>,
}

impl ComparisonRow {
    pub fn speedup(&self) -> f64 {
        self.complete_secs / self.global_secs.max(1e-9)
    }
}

/// Run one Table 3 point: complete vs global/detailed with a per-solve
/// wall-clock cap. Mirrors the paper's methodology (times include all
/// pre-processing).
pub fn compare_point(point: &Table3Point, cap: Duration) -> ComparisonRow {
    let design = table3_design(point, 0xF00D);
    let board = table3_board(point);
    let mut mip = MipOptions {
        time_limit: Some(cap),
        ..MipOptions::default()
    };
    mip.simplex.pricing = pricing_from_env();
    let mut opts = MapperOptions::new();
    opts.backend = SolverBackend::Serial(mip);
    let mapper = Mapper::new(opts);

    let t0 = Instant::now();
    let two_phase = mapper.map(&design, &board);
    let global_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let complete = mapper.map_complete(&design, &board);
    let complete_time = t1.elapsed();
    let complete_capped = complete_time >= cap;

    let costs_match = match (&two_phase, &complete) {
        (Ok(a), Ok((b, _))) if !complete_capped => {
            let w = CostWeights::default();
            Some((a.cost.weighted(&w) - b.cost.weighted(&w)).abs() < 1e-6)
        }
        _ => None,
    };

    ComparisonRow {
        point: *point,
        complete_secs: complete_time.as_secs_f64(),
        global_secs,
        complete_capped,
        costs_match,
    }
}

/// Render comparison rows in the paper's Table 3 layout.
pub fn render_rows(rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>5} {:>7} {:>7} {:>7} {:>8} | {:>12} {:>12} {:>8} | {:>10} {:>10}\n",
        "point", "#segs", "#banks", "#ports", "#configs",
        "complete(s)", "global(s)", "speedup", "paper-c(s)", "paper-g(s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>5} {:>7} {:>7} {:>7} {:>8} | {}{:>11.2} {:>12.3} {:>7.0}x | {:>10.1} {:>10.1}{}\n",
            r.point.index,
            r.point.segments,
            r.point.banks,
            r.point.ports,
            r.point.configs,
            if r.complete_capped { ">" } else { " " },
            r.complete_secs,
            r.global_secs,
            r.speedup(),
            r.point.paper_complete_secs,
            r.point.paper_global_secs,
            match r.costs_match {
                Some(true) => "  costs-equal",
                Some(false) => "  COST-MISMATCH",
                None => "",
            }
        ));
    }
    out
}

/// Time a single global/detailed mapping of a Table 3 point (the quantity
/// Criterion samples in `table3_solve_times` and `fig4_scaling`).
pub fn time_global(point: &Table3Point) -> Duration {
    let design = table3_design(point, 0xF00D);
    let board = table3_board(point);
    let mut opts = MapperOptions::new();
    opts.backend.set_lp_pricing(pricing_from_env());
    let mapper = Mapper::new(opts);
    let t = Instant::now();
    let out = mapper.map(&design, &board).expect("table3 points are mappable");
    std::hint::black_box(out);
    t.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_workloads::TABLE3;

    #[test]
    fn comparison_smallest_point_costs_equal() {
        // Short cap: in debug builds the complete solve may not finish —
        // the cost-equality claim is then checked by the bench run and
        // the `equivalence` integration tests instead.
        let row = compare_point(&TABLE3[0], Duration::from_secs(8));
        assert!(row.global_secs < 5.0, "global must be fast");
        assert!(row.complete_secs > row.global_secs);
        if !row.complete_capped {
            assert_eq!(row.costs_match, Some(true));
        }
    }

    #[test]
    fn render_includes_paper_columns() {
        let row = ComparisonRow {
            point: TABLE3[0],
            complete_secs: 1.0,
            global_secs: 0.1,
            complete_capped: false,
            costs_match: Some(true),
        };
        let text = render_rows(&[row]);
        assert!(text.contains("8.1"));
        assert!(text.contains("costs-equal"));
    }
}
