//! The `BENCH_simplex.json` perf-trajectory harness behind `gmm bench`.
//!
//! A *trajectory* run solves the same workload once per simplex pricing
//! rule and records throughput metrics for each — instances/sec over the
//! stream workload, pivots/sec and nodes/sec through the solver's hot
//! loops, plus the refactorization cadence counters the eta-budget
//! refactorization policy exposes. Writing the result to a JSON file at
//! a stable path (`BENCH_simplex.json` at the repo root) makes the
//! numbers diffable across commits: the perf trajectory of the pivot
//! loop is a reviewable artifact, not a claim in a PR description.
//!
//! Everything runs through [`gmm_api::MapRequest`] — the same facade the
//! CLI and `mapsrv` use — so the recorded counters are exactly what
//! production callers observe.

use gmm_api::{MapRequest, ProgressObserver};
use gmm_ilp::PricingRule;
use gmm_workloads::{stream_instances, table3_board, table3_design, StreamSpec, TABLE3};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag stamped into every report; bump when the shape changes.
pub const BENCH_SCHEMA: &str = "gmm-bench-simplex/v1";

/// What one trajectory run covers.
#[derive(Debug, Clone)]
pub struct TrajectoryConfig {
    /// Stream instances solved per pricing rule.
    pub stream_count: usize,
    /// Seed of the stream workload (instances are derived per-index).
    pub stream_seed: u64,
    /// Inclusive segments-per-instance range of the stream workload.
    /// The default stream shape (6–14 segments) solves in microseconds,
    /// where the pricing scan is noise; the bench defaults push this up
    /// so per-pivot scan cost is actually on the profile.
    pub stream_segments: (usize, usize),
    /// 1-based Table 3 point indices to time per rule.
    pub table3_points: Vec<usize>,
    /// Per-point deadline; capped points are marked, not failed.
    pub point_cap: Duration,
    /// Rules to ablate; defaults to all of them.
    pub rules: Vec<PricingRule>,
}

impl TrajectoryConfig {
    /// CI-sized smoke run: a handful of stream instances, the two
    /// smallest Table 3 points, tight caps.
    pub fn quick() -> TrajectoryConfig {
        TrajectoryConfig {
            stream_count: 8,
            stream_seed: StreamSpec::default().seed,
            stream_segments: (24, 48),
            table3_points: vec![1, 2],
            point_cap: Duration::from_secs(2),
            rules: PricingRule::ALL.to_vec(),
        }
    }

    /// The recorded-artifact run: the full stream workload plus the
    /// whole Table 3 suite under a per-point cap.
    pub fn full() -> TrajectoryConfig {
        TrajectoryConfig {
            stream_count: 24,
            stream_seed: StreamSpec::default().seed,
            stream_segments: (24, 48),
            table3_points: (1..=TABLE3.len()).collect(),
            point_cap: Duration::from_secs(5),
            rules: PricingRule::ALL.to_vec(),
        }
    }
}

/// Throughput over the stream workload for one pricing rule.
#[derive(Debug, Clone, Serialize)]
pub struct StreamMetrics {
    pub instances: u64,
    pub wall_secs: f64,
    pub instances_per_sec: f64,
    pub pivots: u64,
    pub pivots_per_sec: f64,
    pub nodes: u64,
    pub nodes_per_sec: f64,
    pub refactorizations: u64,
    pub eta_nnz_peak: u64,
    /// Sum of weighted objectives — identical across rules when every
    /// rule reaches the optimum (the cross-rule agreement invariant).
    pub objective_sum: f64,
}

/// One timed Table 3 point for one pricing rule.
#[derive(Debug, Clone, Serialize)]
pub struct PointMetrics {
    /// 1-based paper index.
    pub point: usize,
    pub secs: f64,
    pub pivots: u64,
    pub nodes: u64,
    pub refactorizations: u64,
    /// The solve hit the per-point cap (time is a floor, not a total).
    pub capped: bool,
}

/// Everything measured for one pricing rule.
#[derive(Debug, Clone, Serialize)]
pub struct RuleTrajectory {
    /// `dantzig` / `partial` / `devex`.
    pub rule: String,
    pub stream: StreamMetrics,
    pub table3: Vec<PointMetrics>,
}

/// The full report serialized to `BENCH_simplex.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    pub schema: String,
    pub stream_count: u64,
    pub stream_seed: u64,
    pub stream_segments: [u64; 2],
    pub table3_points: Vec<u64>,
    pub point_cap_secs: f64,
    pub rules: Vec<RuleTrajectory>,
}

impl BenchReport {
    /// The trajectory recorded for `rule`, if it ran.
    pub fn rule(&self, rule: PricingRule) -> Option<&RuleTrajectory> {
        self.rules.iter().find(|r| r.rule == rule.as_str())
    }

    /// Canonical pretty-printed JSON payload.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Run the whole trajectory described by `cfg`.
///
/// Per rule: solve `stream_count` stream instances back to back (the
/// service-shaped throughput workload), then each requested Table 3
/// point under the cap. Panics if a stream instance fails to map —
/// stream instances are feasible by construction, so a failure is a
/// solver bug, not a workload property.
pub fn run_trajectory(cfg: &TrajectoryConfig) -> BenchReport {
    run_trajectory_with(cfg, None)
}

/// [`run_trajectory`] with a progress sink: the observer rides inside
/// every `MapRequest` (the same phase/incumbent/node event pipeline the
/// CLI's `--progress` and the mapsrv watch streams consume).
pub fn run_trajectory_with(
    cfg: &TrajectoryConfig,
    observer: Option<Arc<dyn ProgressObserver>>,
) -> BenchReport {
    let mut rules = Vec::with_capacity(cfg.rules.len());
    for &rule in &cfg.rules {
        rules.push(run_rule(cfg, rule, observer.as_ref()));
    }
    BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        stream_count: cfg.stream_count as u64,
        stream_seed: cfg.stream_seed,
        stream_segments: [cfg.stream_segments.0 as u64, cfg.stream_segments.1 as u64],
        table3_points: cfg.table3_points.iter().map(|&p| p as u64).collect(),
        point_cap_secs: cfg.point_cap.as_secs_f64(),
        rules,
    }
}

fn run_rule(
    cfg: &TrajectoryConfig,
    rule: PricingRule,
    observer: Option<&Arc<dyn ProgressObserver>>,
) -> RuleTrajectory {
    let spec = StreamSpec {
        seed: cfg.stream_seed,
        segments: cfg.stream_segments,
    };
    let mut pivots = 0u64;
    let mut nodes = 0u64;
    let mut refactors = 0u64;
    let mut eta_peak = 0u64;
    let mut objective_sum = 0.0f64;
    let t0 = Instant::now();
    for inst in stream_instances(spec).take(cfg.stream_count) {
        let mut request = MapRequest::new(inst.design, inst.board).lp_pricing(rule);
        if let Some(obs) = observer {
            request = request.observer(obs.clone());
        }
        let report = request
            .execute()
            .unwrap_or_else(|e| panic!("stream instance {} failed under {rule}: {e}", inst.name));
        pivots += report.lp_iterations;
        nodes += report.nodes_explored;
        refactors += report.refactorizations;
        eta_peak = eta_peak.max(report.eta_nnz_peak);
        objective_sum += report.objective.unwrap_or(0.0);
    }
    let wall = t0.elapsed().as_secs_f64();
    let per_sec = |count: u64| count as f64 / wall.max(1e-9);

    let stream = StreamMetrics {
        instances: cfg.stream_count as u64,
        wall_secs: wall,
        instances_per_sec: per_sec(cfg.stream_count as u64),
        pivots,
        pivots_per_sec: per_sec(pivots),
        nodes,
        nodes_per_sec: per_sec(nodes),
        refactorizations: refactors,
        eta_nnz_peak: eta_peak,
        objective_sum,
    };

    let table3 = cfg
        .table3_points
        .iter()
        .map(|&idx| run_point(idx, cfg.point_cap, rule, observer))
        .collect();

    RuleTrajectory {
        rule: rule.as_str().to_string(),
        stream,
        table3,
    }
}

fn run_point(
    idx: usize,
    cap: Duration,
    rule: PricingRule,
    observer: Option<&Arc<dyn ProgressObserver>>,
) -> PointMetrics {
    let point = &TABLE3[idx - 1];
    let design = table3_design(point, 0xF00D);
    let board = table3_board(point);
    let t0 = Instant::now();
    let mut request = MapRequest::new(design, board)
        .lp_pricing(rule)
        .deadline(cap);
    if let Some(obs) = observer {
        request = request.observer(obs.clone());
    }
    let report = request
        .execute()
        .unwrap_or_else(|e| panic!("table3 point {idx} failed under {rule}: {e}"));
    let secs = t0.elapsed().as_secs_f64();
    PointMetrics {
        point: idx,
        secs,
        pivots: report.lp_iterations,
        nodes: report.nodes_explored,
        refactorizations: report.refactorizations,
        capped: report.termination == gmm_api::Termination::DeadlineExceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trajectory_covers_every_rule() {
        let mut cfg = TrajectoryConfig::quick();
        cfg.stream_count = 2;
        cfg.table3_points = vec![1];
        let report = run_trajectory(&cfg);
        assert_eq!(report.schema, BENCH_SCHEMA);
        assert_eq!(report.rules.len(), PricingRule::ALL.len());
        for rule in PricingRule::ALL {
            let r = report.rule(rule).expect("every rule recorded");
            assert_eq!(r.stream.instances, 2);
            assert!(r.stream.pivots > 0, "{rule} recorded no pivots");
            assert!(r.stream.refactorizations > 0);
            assert_eq!(r.table3.len(), 1);
        }
        // All rules must land on the same optima over the same stream.
        let base = report
            .rule(PricingRule::Dantzig)
            .unwrap()
            .stream
            .objective_sum;
        for rule in [PricingRule::Partial, PricingRule::Devex] {
            let got = report.rule(rule).unwrap().stream.objective_sum;
            assert!(
                (got - base).abs() < 1e-6,
                "{rule} objective sum {got} != dantzig {base}"
            );
        }
    }

    #[test]
    fn report_json_carries_the_schema_and_rates() {
        let mut cfg = TrajectoryConfig::quick();
        cfg.stream_count = 1;
        cfg.table3_points = vec![];
        cfg.rules = vec![PricingRule::Dantzig];
        let json = run_trajectory(&cfg).to_json();
        for key in [
            "gmm-bench-simplex/v1",
            "instances_per_sec",
            "pivots_per_sec",
            "nodes_per_sec",
            "refactorizations",
            "eta_nnz_peak",
        ] {
            assert!(json.contains(key), "missing `{key}` in:\n{json}");
        }
    }
}
