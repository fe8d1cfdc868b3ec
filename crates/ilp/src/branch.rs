//! Serial branch-and-bound driver for mixed-integer programs.
//!
//! Each node is an LP relaxation of the model with tightened variable
//! bounds. Nodes are explored best-bound-first; branching picks the most
//! fractional integer variable, with pseudo-cost scores once enough history
//! accumulates. The incumbent prunes nodes whose relaxation bound cannot
//! improve on it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::control::SolveControl;
use crate::error::{IlpError, LpStatus, MipStatus, StopReason};
use crate::model::Model;
use crate::simplex::{solve_lp_warm, SimplexOptions, WarmStart};
use crate::standard::LpCore;

/// Limits and strategy knobs for a MIP solve.
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Absolute integrality tolerance.
    pub int_tol: f64,
    /// Stop when `(incumbent - bound) / max(1,|incumbent|)` drops below this.
    pub rel_gap: f64,
    /// Wall-clock limit; `None` = unlimited.
    pub time_limit: Option<Duration>,
    /// Node limit; `None` = unlimited.
    pub node_limit: Option<u64>,
    /// LP engine options.
    pub simplex: SimplexOptions,
    /// Try a simple rounding heuristic on fractional LP solutions.
    pub rounding_heuristic: bool,
    /// Run a depth-limited diving heuristic at the root to find an early
    /// incumbent (valuable on large models that would otherwise time out
    /// with no solution at all). Its first LP starts from the root's
    /// optimal basis.
    pub diving: bool,
    /// Warm-start each node's LP from its parent's optimal basis
    /// (skipping phase 1 via a short dual-simplex repair). Disable to
    /// cold-start every node, e.g. for ablation runs.
    pub warm_start: bool,
    /// Externally supplied candidate solution (model variable order) to
    /// install as the starting incumbent — the warm-start *hint* path:
    /// a solution of a sibling instance seeds this solve so the search
    /// opens with a finite bound instead of cold. The seed is never
    /// trusted: integer variables are rounded, feasibility is checked
    /// against *this* model, and the objective is recomputed; an
    /// infeasible or mis-sized seed is silently discarded.
    pub incumbent_seed: Option<Vec<f64>>,
    /// A feasible integer point (model variable order) to start the root
    /// LP from, when no [`MipOptions::incumbent_seed`] was accepted: the
    /// root then begins at the slack basis of that vertex
    /// ([`WarmStart::at_vertex`]) and skips phase 1. Only the root's
    /// starting basis changes; the point is never installed as the
    /// incumbent. Ignored unless it passes the model's feasibility check
    /// and every entry sits exactly on a bound, and ignored with
    /// `warm_start` off.
    pub root_start: Option<Vec<f64>>,
    /// Cooperative cancellation and progress reporting. The token is
    /// polled once per node here and every few pivots inside the LP;
    /// the observer hears incumbent updates and a node heartbeat.
    pub control: SolveControl,
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions {
            int_tol: 1e-6,
            rel_gap: 1e-9,
            time_limit: None,
            node_limit: None,
            simplex: SimplexOptions::default(),
            rounding_heuristic: true,
            diving: true,
            warm_start: true,
            incumbent_seed: None,
            root_start: None,
            control: SolveControl::default(),
        }
    }
}

/// Outcome of a MIP solve.
#[derive(Debug, Clone)]
pub struct MipResult {
    pub status: MipStatus,
    /// Best integer-feasible point (model variable order).
    pub best_solution: Option<Vec<f64>>,
    /// Objective of `best_solution` in the user's sense.
    pub best_objective: Option<f64>,
    /// Best proven bound on the optimum (user's sense).
    pub best_bound: f64,
    /// Relative optimality gap at termination.
    pub gap: f64,
    pub nodes_explored: u64,
    /// Simplex pivots across all node LPs and the root dive's LPs.
    pub lp_iterations: u64,
    /// Non-root nodes whose LP accepted a parent warm-start basis and
    /// skipped phase 1 entirely.
    pub warm_started_nodes: u64,
    /// Basis refactorizations across all node LPs and the root dive's
    /// LPs (each LP counts its initial factorization plus every scheduled
    /// or eta-budget rebuild).
    pub refactorizations: u64,
    /// Worst eta-file fill-in (nonzeros) any single node LP reached.
    pub eta_nnz_peak: u64,
    /// Why the search stopped early; `None` when the tree was exhausted
    /// (or the gap target met) normally.
    pub stop_reason: Option<StopReason>,
    /// True when [`MipOptions::incumbent_seed`] was accepted (feasible
    /// for this model) and installed as the starting incumbent.
    pub incumbent_seeded: bool,
    pub wall_time: Duration,
}

impl MipResult {
    /// Objective value recomputed against a model (sanity helper).
    pub fn best_solution_value(&self, model: &Model) -> Option<f64> {
        self.best_solution
            .as_ref()
            .map(|x| model.objective_value(x))
    }
}

/// Chain of bound tightenings from the root to a node.
#[derive(Debug)]
struct BoundDelta {
    var: u32,
    lb: f64,
    ub: f64,
    parent: Option<Arc<BoundDelta>>,
}

impl BoundDelta {
    /// Materialize full bound vectors starting from the root bounds.
    fn materialize(
        node: &Option<Arc<BoundDelta>>,
        lb0: &[f64],
        ub0: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let mut lb = lb0.to_vec();
        let mut ub = ub0.to_vec();
        let mut cur = node.clone();
        // Deltas are applied child-first; only the *first* (deepest) delta
        // seen per variable is authoritative, because each delta stores the
        // variable's full bounds at that node.
        let mut seen = std::collections::HashSet::new();
        while let Some(d) = cur {
            if seen.insert(d.var) {
                lb[d.var as usize] = d.lb;
                ub[d.var as usize] = d.ub;
            }
            cur = d.parent.clone();
        }
        (lb, ub)
    }
}

struct Node {
    delta: Option<Arc<BoundDelta>>,
    /// LP bound inherited from the parent (internal minimization sense).
    bound: f64,
    /// The branching decision that created this node, for pseudo-cost
    /// updates: (variable, branched up?, parent fractionality).
    branched: Option<(u32, bool, f64)>,
    /// Parent's optimal basis, shared by both children.
    warm: Option<Arc<WarmStart>>,
}

struct HeapEntry {
    node: Node,
    order_key: f64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.order_key == other.order_key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest key on top.
        other
            .order_key
            .partial_cmp(&self.order_key)
            .unwrap_or(Ordering::Equal)
    }
}

/// Per-variable pseudo-cost history.
struct PseudoCosts {
    down_sum: Vec<f64>,
    down_cnt: Vec<u32>,
    up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
}

impl PseudoCosts {
    fn new(n: usize) -> Self {
        PseudoCosts {
            down_sum: vec![0.0; n],
            down_cnt: vec![0; n],
            up_sum: vec![0.0; n],
            up_cnt: vec![0; n],
        }
    }

    fn record(&mut self, var: usize, up: bool, degradation: f64, frac: f64) {
        let unit = if frac > 1e-9 {
            degradation / frac
        } else {
            degradation
        };
        if up {
            self.up_sum[var] += unit;
            self.up_cnt[var] += 1;
        } else {
            self.down_sum[var] += unit;
            self.down_cnt[var] += 1;
        }
    }

    fn score(&self, var: usize, frac: f64) -> Option<f64> {
        if self.down_cnt[var] == 0 || self.up_cnt[var] == 0 {
            return None;
        }
        let down = self.down_sum[var] / self.down_cnt[var] as f64 * frac;
        let up = self.up_sum[var] / self.up_cnt[var] as f64 * (1.0 - frac);
        // Product rule (with epsilon) favours variables strong both ways.
        Some((down.max(1e-6)) * (up.max(1e-6)))
    }
}

/// Pick the branching variable among fractional integers by pseudo-cost
/// score. A variable without history in both directions scores its
/// distance to the nearest integer, scaled down by 1000.
fn select_branch_var(
    int_vars: &[usize],
    x: &[f64],
    int_tol: f64,
    pseudo: &PseudoCosts,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    let mut best_score = -1.0;
    for &v in int_vars {
        let frac = x[v] - x[v].floor();
        let dist = frac.min(1.0 - frac);
        if dist <= int_tol {
            continue;
        }
        let score = pseudo.score(v, frac).unwrap_or(dist * 1e-3);
        if score > best_score {
            best_score = score;
            best = Some((v, x[v]));
        }
    }
    best
}

/// Round a fractional LP point to the nearest integer point and accept it
/// if it is feasible for the model. Cheap and surprisingly effective on
/// assignment-style models.
fn rounding_heuristic(model: &Model, x: &[f64], int_tol: f64) -> Option<Vec<f64>> {
    let mut cand = x.to_vec();
    for v in model.integer_vars() {
        cand[v.index()] = cand[v.index()].round();
    }
    match model.check_feasible(&cand, int_tol.max(1e-7) * 10.0) {
        Ok(()) => Some(cand),
        Err(_) => None,
    }
}

/// What the root dive found, and the LP work it spent.
#[derive(Debug, Default)]
struct Dive {
    /// The integer-feasible point reached, if any.
    point: Option<Vec<f64>>,
    /// LPs solved, and how many of them accepted their starting basis.
    lps: u64,
    warm_lps: u64,
    iterations: u64,
    refactorizations: u64,
}

/// Depth-limited diving heuristic: repeatedly fix the fractional integer
/// variable *closest* to integrality at its rounded value and re-solve the
/// LP, stopping at the first integer-feasible point. Each step tightens
/// one bound, so each LP warm-starts from the previous one's basis,
/// exactly like a branch-and-bound edge; the first starts from `warm`,
/// the basis of the LP that produced `start_x`.
#[allow(clippy::too_many_arguments)]
fn dive(
    core: &LpCore,
    model: &Model,
    int_vars: &[usize],
    lb0: &[f64],
    ub0: &[f64],
    start_x: &[f64],
    mut warm: Option<WarmStart>,
    sx: &SimplexOptions,
    int_tol: f64,
    max_lps: usize,
) -> Dive {
    let mut lb = lb0.to_vec();
    let mut ub = ub0.to_vec();
    let mut x = start_x.to_vec();
    let mut out = Dive::default();
    for _ in 0..max_lps {
        let mut pick: Option<(usize, f64)> = None;
        let mut best = f64::INFINITY;
        for &v in int_vars {
            let frac = x[v] - x[v].floor();
            let dist = frac.min(1.0 - frac);
            if dist > int_tol && dist < best {
                best = dist;
                pick = Some((v, x[v]));
            }
        }
        let Some((v, xv)) = pick else {
            let mut cand = x;
            for &v in int_vars {
                cand[v] = cand[v].round();
            }
            out.point = model.check_feasible(&cand, 1e-6).ok().map(|()| cand);
            return out;
        };
        let fixed = xv.round().clamp(lb[v], ub[v]);
        lb[v] = fixed;
        ub[v] = fixed;
        // An infeasible dive or a deadline gives up.
        let Ok(s) = solve_lp_warm(core, &lb, &ub, sx, warm.as_ref()) else {
            return out;
        };
        out.lps += 1;
        out.warm_lps += s.warm_started as u64;
        out.iterations += s.iterations as u64;
        out.refactorizations += s.refactorizations;
        if s.status != LpStatus::Optimal {
            return out;
        }
        x = s.x;
        warm = s.snapshot.and_then(|snap| snap.warm_start());
    }
    out
}

/// Solve a mixed-integer program.
///
/// ```
/// use gmm_ilp::branch::{solve_mip, MipOptions};
/// use gmm_ilp::model::{lin, Model, Objective, Sense};
/// use gmm_ilp::MipStatus;
///
/// // A knapsack whose LP relaxation is fractional, forcing branching:
/// // maximize 5a + 4b + 3c  s.t.  2a + 3b + c <= 3,  a,b,c binary.
/// let mut m = Model::new();
/// let a = m.add_binary(5.0);
/// let b = m.add_binary(4.0);
/// let c = m.add_binary(3.0);
/// m.set_objective_direction(Objective::Maximize);
/// m.add_constraint(lin(&[(a, 2.0), (b, 3.0), (c, 1.0)]), Sense::Le, 3.0).unwrap();
///
/// let result = solve_mip(&m, &MipOptions::default()).unwrap();
/// assert_eq!(result.status, MipStatus::Optimal);
/// assert_eq!(result.best_objective, Some(8.0)); // a + c
/// assert!(result.nodes_explored >= 1);
/// ```
pub fn solve_mip(model: &Model, opts: &MipOptions) -> Result<MipResult, IlpError> {
    let start = Instant::now();
    let core = LpCore::from_model(model);
    let int_vars: Vec<usize> = model.integer_vars().iter().map(|v| v.index()).collect();
    let n = model.num_vars();

    // Integer variables must have integral bounds for branching to make
    // sense; tighten fractional bounds up front.
    let mut lb0 = core.lb.clone();
    let mut ub0 = core.ub.clone();
    for &v in &int_vars {
        lb0[v] = lb0[v].ceil();
        ub0[v] = ub0[v].floor();
        if lb0[v] > ub0[v] {
            return Ok(MipResult {
                status: MipStatus::Infeasible,
                best_solution: None,
                best_objective: None,
                best_bound: f64::NAN,
                gap: f64::NAN,
                nodes_explored: 0,
                lp_iterations: 0,
                warm_started_nodes: 0,
                refactorizations: 0,
                eta_nnz_peak: 0,
                stop_reason: None,
                incumbent_seeded: false,
                wall_time: start.elapsed(),
            });
        }
    }

    let mut simplex_opts = opts.simplex.clone();
    if let Some(tl) = opts.time_limit {
        let dl = start + tl;
        simplex_opts.deadline = Some(match simplex_opts.deadline {
            Some(existing) => existing.min(dl),
            None => dl,
        });
    }
    if simplex_opts.cancel.is_none() {
        simplex_opts.cancel = opts.control.cancel.clone();
    }

    let mut pseudo = PseudoCosts::new(n);
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();

    let mut incumbent: Option<Vec<f64>> = None;
    // Internal minimization objective of the incumbent.
    let mut incumbent_obj = f64::INFINITY;
    let mut nodes: u64 = 0;
    let mut lp_iters: u64 = 0;
    let mut warm_nodes: u64 = 0;
    let mut refactors: u64 = 0;
    let mut eta_peak: u64 = 0;
    let mut status_limit_hit = false;
    let mut stop_reason: Option<StopReason> = None;

    // Internal objective of a user-sense value.
    let to_internal = |user: f64| {
        let v = user - core.obj_offset;
        if core.maximize {
            -v
        } else {
            v
        }
    };
    let to_user = |internal: f64| core.user_objective(internal);

    // Install the externally supplied incumbent seed, if it survives
    // scrutiny. Seeds come from *sibling* instances (the persistent
    // warm-start hint store), so they may be mis-sized, violate a
    // constraint this model has and the sibling did not (e.g. a no-good
    // cut added on retry), or carry a stale objective — round, check
    // feasibility against this model, and recompute the objective here.
    let feas_tol = opts.int_tol.max(1e-7) * 10.0;
    let mut incumbent_seeded = false;
    if let Some(seed) = &opts.incumbent_seed {
        if seed.len() == n {
            let mut cand = seed.clone();
            for &v in &int_vars {
                cand[v] = cand[v].round();
            }
            if model.check_feasible(&cand, feas_tol).is_ok() {
                incumbent_obj = to_internal(model.objective_value(&cand));
                incumbent = Some(cand);
                incumbent_seeded = true;
                opts.control.incumbent(to_user(incumbent_obj), 0);
            }
        }
    }

    // Start the root LP at a known feasible vertex when there is one: the
    // accepted seed, else a feasible `root_start`. Its slack basis is
    // primal feasible, so the root skips phase 1. Among equal-cost optima
    // the search keeps the first incumbent it finds, so the starting
    // vertex can decide which of them is returned.
    let vertex_basis = |x: &Vec<f64>| WarmStart::at_vertex(x, &lb0, &ub0, core.num_rows());
    let root_warm = if opts.warm_start {
        incumbent.as_ref().and_then(vertex_basis).or_else(|| {
            opts.root_start
                .as_ref()
                .filter(|x| x.len() == n && model.check_feasible(x, feas_tol).is_ok())
                .and_then(vertex_basis)
        })
    } else {
        None
    };
    heap.push(HeapEntry {
        order_key: f64::NEG_INFINITY,
        node: Node {
            delta: None,
            bound: f64::NEG_INFINITY,
            branched: None,
            warm: root_warm.map(Arc::new),
        },
    });

    let mut best_bound_internal = f64::NEG_INFINITY;
    let mut root_infeasible = false;
    let mut root_unbounded = false;

    loop {
        // Respect limits (cancellation first: it is the cheapest check
        // and the most urgent to honor).
        if opts.control.is_cancelled() {
            status_limit_hit = true;
            stop_reason = Some(StopReason::Cancelled);
            break;
        }
        if let Some(tl) = opts.time_limit {
            if start.elapsed() >= tl {
                status_limit_hit = true;
                stop_reason = Some(StopReason::Deadline);
                break;
            }
        }
        if let Some(nl) = opts.node_limit {
            if nodes >= nl {
                status_limit_hit = true;
                stop_reason = Some(StopReason::NodeLimit);
                break;
            }
        }

        let Some(HeapEntry { node, .. }) = heap.pop() else {
            break;
        };

        // Prune against incumbent using the inherited bound.
        if node.bound >= incumbent_obj - 1e-9 {
            continue;
        }

        let (lb, ub) = BoundDelta::materialize(&node.delta, &lb0, &ub0);
        let warm_basis = if opts.warm_start {
            node.warm.as_deref()
        } else {
            None
        };
        let sol = match solve_lp_warm(&core, &lb, &ub, &simplex_opts, warm_basis) {
            Ok(s) => s,
            Err(crate::error::IlpError::Deadline) => {
                status_limit_hit = true;
                stop_reason = Some(StopReason::Deadline);
                break;
            }
            Err(crate::error::IlpError::Cancelled) => {
                status_limit_hit = true;
                stop_reason = Some(StopReason::Cancelled);
                break;
            }
            Err(e) => return Err(e),
        };
        nodes += 1;
        lp_iters += sol.iterations as u64;
        refactors += sol.refactorizations;
        eta_peak = eta_peak.max(sol.eta_nnz_peak);
        if sol.warm_started && node.branched.is_some() {
            warm_nodes += 1;
        }
        opts.control.node_tick(nodes);

        match sol.status {
            LpStatus::Infeasible => {
                if nodes == 1 {
                    root_infeasible = true;
                }
                continue;
            }
            LpStatus::Unbounded => {
                if nodes == 1 {
                    root_unbounded = true;
                    break;
                }
                // An unbounded node with a bounded root relaxation cannot
                // happen (bounds only tighten); treat as numerical noise.
                continue;
            }
            LpStatus::Optimal => {}
        }

        let node_bound = to_internal(sol.objective);
        if nodes == 1 {
            best_bound_internal = node_bound;
        }
        // Pseudo-cost update: the true bound degradation this branching
        // decision caused, normalized by the fractional distance moved.
        if let Some((bv, up, frac)) = node.branched {
            if node.bound.is_finite() {
                let degradation = (node_bound - node.bound).max(0.0);
                let dist = if up { 1.0 - frac } else { frac };
                pseudo.record(bv as usize, up, degradation, dist);
            }
        }
        if node_bound >= incumbent_obj - 1e-9 {
            continue; // bound-pruned after solving
        }

        match select_branch_var(&int_vars, &sol.x, opts.int_tol, &pseudo) {
            None => {
                // Integer feasible: candidate incumbent.
                if node_bound < incumbent_obj {
                    incumbent_obj = node_bound;
                    let mut x = sol.x.clone();
                    // Snap integers exactly.
                    for &v in &int_vars {
                        x[v] = x[v].round();
                    }
                    incumbent = Some(x);
                    opts.control.incumbent(to_user(incumbent_obj), nodes);
                }
            }
            Some((bv, xv)) => {
                let basis = sol.snapshot.as_ref().and_then(|s| s.warm_start());
                if opts.diving && nodes == 1 && incumbent.is_none() {
                    let d = dive(
                        &core,
                        model,
                        &int_vars,
                        &lb,
                        &ub,
                        &sol.x,
                        basis.clone(),
                        &simplex_opts,
                        opts.int_tol,
                        40,
                    );
                    lp_iters += d.iterations;
                    refactors += d.refactorizations;
                    if let Some(cand) = d.point {
                        let obj = to_internal(model.objective_value(&cand));
                        if obj < incumbent_obj {
                            incumbent_obj = obj;
                            incumbent = Some(cand);
                            opts.control.incumbent(to_user(incumbent_obj), nodes);
                        }
                    }
                }
                if opts.rounding_heuristic {
                    if let Some(cand) = rounding_heuristic(model, &sol.x, opts.int_tol) {
                        let obj = to_internal(model.objective_value(&cand));
                        if obj < incumbent_obj {
                            incumbent_obj = obj;
                            incumbent = Some(cand);
                            opts.control.incumbent(to_user(incumbent_obj), nodes);
                        }
                    }
                }
                let floor = xv.floor();
                let frac = xv - floor;
                // Both children warm-start from this node's optimal basis.
                let child_warm = if opts.warm_start {
                    basis.map(Arc::new)
                } else {
                    None
                };
                // Children: var <= floor, var >= floor + 1.
                let down = Node {
                    delta: Some(Arc::new(BoundDelta {
                        var: bv as u32,
                        lb: lb[bv],
                        ub: floor,
                        parent: node.delta.clone(),
                    })),
                    bound: node_bound,
                    branched: Some((bv as u32, false, frac)),
                    warm: child_warm.clone(),
                };
                let up = Node {
                    delta: Some(Arc::new(BoundDelta {
                        var: bv as u32,
                        lb: floor + 1.0,
                        ub: ub[bv],
                        parent: node.delta.clone(),
                    })),
                    bound: node_bound,
                    branched: Some((bv as u32, true, frac)),
                    warm: child_warm,
                };
                heap.push(HeapEntry {
                    order_key: node_bound,
                    node: down,
                });
                heap.push(HeapEntry {
                    order_key: node_bound,
                    node: up,
                });
            }
        }

        // Gap-based early stop (best-bound order keeps the heap top as the
        // global bound).
        if incumbent.is_some() {
            let bound_now = heap
                .peek()
                .map(|e| e.order_key)
                .unwrap_or(incumbent_obj)
                .max(best_bound_internal);
            let gap = (incumbent_obj - bound_now).abs() / incumbent_obj.abs().max(1.0);
            if gap <= opts.rel_gap {
                break;
            }
        }
    }

    // Final bound: open nodes' best key, else the incumbent itself.
    let final_bound_internal = if status_limit_hit {
        heap.peek()
            .map(|e| e.order_key.max(best_bound_internal))
            .unwrap_or(incumbent_obj.min(best_bound_internal))
    } else {
        incumbent_obj
    };

    let wall = start.elapsed();
    if root_unbounded {
        return Ok(MipResult {
            status: MipStatus::Unbounded,
            best_solution: None,
            best_objective: None,
            best_bound: f64::NAN,
            gap: f64::NAN,
            nodes_explored: nodes,
            lp_iterations: lp_iters,
            warm_started_nodes: warm_nodes,
            refactorizations: refactors,
            eta_nnz_peak: eta_peak,
            stop_reason: None,
            incumbent_seeded,
            wall_time: wall,
        });
    }
    match incumbent {
        Some(x) => {
            let gap = if status_limit_hit {
                (incumbent_obj - final_bound_internal).abs() / incumbent_obj.abs().max(1.0)
            } else {
                0.0
            };
            Ok(MipResult {
                status: if status_limit_hit && gap > opts.rel_gap {
                    MipStatus::Feasible
                } else {
                    MipStatus::Optimal
                },
                best_objective: Some(to_user(incumbent_obj)),
                best_bound: to_user(final_bound_internal),
                best_solution: Some(x),
                gap,
                nodes_explored: nodes,
                lp_iterations: lp_iters,
                warm_started_nodes: warm_nodes,
                refactorizations: refactors,
                eta_nnz_peak: eta_peak,
                stop_reason: if status_limit_hit { stop_reason } else { None },
                incumbent_seeded,
                wall_time: wall,
            })
        }
        None => Ok(MipResult {
            status: if status_limit_hit {
                MipStatus::Unknown
            } else if root_infeasible || !root_unbounded {
                MipStatus::Infeasible
            } else {
                MipStatus::Unknown
            },
            best_solution: None,
            best_objective: None,
            best_bound: if status_limit_hit {
                to_user(final_bound_internal)
            } else {
                f64::NAN
            },
            gap: f64::NAN,
            nodes_explored: nodes,
            lp_iterations: lp_iters,
            warm_started_nodes: warm_nodes,
            refactorizations: refactors,
            eta_nnz_peak: eta_peak,
            stop_reason: if status_limit_hit { stop_reason } else { None },
            incumbent_seeded,
            wall_time: wall,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin, Model, Objective, Sense};

    fn default_solve(model: &Model) -> MipResult {
        solve_mip(model, &MipOptions::default()).unwrap()
    }

    /// max 5a + 4b + 3c  s.t.  2a + 3b + c <= 3 — optimum 8 at (1,0,1).
    fn seed_knapsack() -> Model {
        let mut m = Model::new();
        let a = m.add_binary(5.0);
        let b = m.add_binary(4.0);
        let c = m.add_binary(3.0);
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(a, 2.0), (b, 3.0), (c, 1.0)]), Sense::Le, 3.0)
            .unwrap();
        m
    }

    #[test]
    fn feasible_incumbent_seed_is_installed_and_counted() {
        let m = seed_knapsack();
        let opts = MipOptions {
            incumbent_seed: Some(vec![1.0, 0.0, 1.0]),
            ..MipOptions::default()
        };
        let seeded = solve_mip(&m, &opts).unwrap();
        assert!(seeded.incumbent_seeded, "feasible seed must be installed");
        assert_eq!(seeded.status, MipStatus::Optimal);
        assert_eq!(seeded.best_objective, Some(8.0));
        // The unseeded baseline agrees and reports no seeding.
        let cold = default_solve(&m);
        assert!(!cold.incumbent_seeded);
        assert_eq!(cold.best_objective, seeded.best_objective);
        assert_eq!(cold.best_solution, seeded.best_solution);
    }

    #[test]
    fn bad_seeds_are_discarded_silently() {
        let m = seed_knapsack();
        // Infeasible for the knapsack constraint (2+3+1 = 6 > 3).
        for seed in [vec![1.0, 1.0, 1.0], vec![1.0], vec![]] {
            let opts = MipOptions {
                incumbent_seed: Some(seed),
                ..MipOptions::default()
            };
            let res = solve_mip(&m, &opts).unwrap();
            assert!(!res.incumbent_seeded, "bad seed must not be installed");
            assert_eq!(res.status, MipStatus::Optimal);
            assert_eq!(res.best_objective, Some(8.0));
        }
    }

    #[test]
    fn suboptimal_seed_does_not_block_the_true_optimum() {
        let m = seed_knapsack();
        let opts = MipOptions {
            // Feasible but worth only 4: the search must still reach 8.
            incumbent_seed: Some(vec![0.0, 1.0, 0.0]),
            ..MipOptions::default()
        };
        let res = solve_mip(&m, &opts).unwrap();
        assert!(res.incumbent_seeded);
        assert_eq!(res.status, MipStatus::Optimal);
        assert_eq!(res.best_objective, Some(8.0));
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c st 3a + 4b + 2c <= 6 -> a=0? brute: items
        // (10,3),(13,4),(7,2): best is 13+7=20 (4+2=6).
        let mut m = Model::new();
        let a = m.add_binary(10.0);
        let b = m.add_binary(13.0);
        let c = m.add_binary(7.0);
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(a, 3.0), (b, 4.0), (c, 2.0)]), Sense::Le, 6.0)
            .unwrap();
        let r = default_solve(&m);
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.best_objective.unwrap() - 20.0).abs() < 1e-6);
        let x = r.best_solution.unwrap();
        assert_eq!(x[0].round() as i64, 0);
        assert_eq!(x[1].round() as i64, 1);
        assert_eq!(x[2].round() as i64, 1);
    }

    #[test]
    fn integer_rounding_not_lp_rounding() {
        // max x st 2x <= 5, x integer -> x = 2 (LP gives 2.5).
        let mut m = Model::new();
        let x = m.add_integer(0.0, 100.0, 1.0).unwrap();
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 2.0)]), Sense::Le, 5.0).unwrap();
        let r = default_solve(&m);
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.best_objective.unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Ge, 3.0)
            .unwrap();
        let r = default_solve(&m);
        assert_eq!(r.status, MipStatus::Infeasible);
    }

    #[test]
    fn integrality_gap_forces_branching() {
        // max x + y st x + y <= 1.5 binary: LP opt 1.5 fractional, MIP 1.
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.5)
            .unwrap();
        let r = default_solve(&m);
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.best_objective.unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn equality_assignment() {
        // Assign 2 items to 2 slots, each slot once, minimize cost.
        let mut m = Model::new();
        let c = [[4.0, 1.0], [2.0, 6.0]];
        let mut v = vec![];
        for i in 0..2 {
            for j in 0..2 {
                v.push(m.add_binary(c[i][j]));
            }
        }
        for i in 0..2 {
            m.add_constraint(lin(&[(v[2 * i], 1.0), (v[2 * i + 1], 1.0)]), Sense::Eq, 1.0)
                .unwrap();
        }
        for j in 0..2 {
            m.add_constraint(lin(&[(v[j], 1.0), (v[2 + j], 1.0)]), Sense::Eq, 1.0)
                .unwrap();
        }
        let r = default_solve(&m);
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.best_objective.unwrap() - 3.0).abs() < 1e-6); // 1 + 2
    }

    #[test]
    fn node_limit_reports_feasible_or_unknown() {
        let m = fractional_knapsack();
        let r = solve_mip(
            &m,
            &MipOptions {
                node_limit: Some(1),
                rounding_heuristic: false,
                ..MipOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(
            r.status,
            MipStatus::Feasible | MipStatus::Unknown | MipStatus::Optimal
        ));
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 3x + 2y, x integer, y continuous; x + y <= 4.5; x <= 3.2
        // -> x = 3, y = 1.5, obj = 12.
        let mut m = Model::new();
        let x = m.add_integer(0.0, 10.0, 3.0).unwrap();
        let y = m.add_continuous(0.0, 10.0, 2.0).unwrap();
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Le, 4.5)
            .unwrap();
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Le, 3.2).unwrap();
        let r = default_solve(&m);
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.best_objective.unwrap() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn warm_started_nodes_skip_phase_one() {
        // A knapsack that needs real branching: most non-root nodes must
        // accept the parent basis and skip phase 1, and the answer must
        // match a cold-started run exactly.
        let m = {
            let mut m = Model::new();
            let vals = [9.0, 14.0, 5.0, 7.0, 11.0, 6.0, 13.0, 8.0];
            let wts = [3.0, 5.0, 2.0, 3.0, 4.0, 2.0, 5.0, 3.0];
            let xs: Vec<_> = vals.iter().map(|&v| m.add_binary(v)).collect();
            m.set_objective_direction(Objective::Maximize);
            let mut e = crate::model::LinExpr::new();
            for (x, &w) in xs.iter().zip(&wts) {
                e.push(*x, w);
            }
            m.add_constraint(e, Sense::Le, 13.0).unwrap();
            m
        };
        let no_heuristics = MipOptions {
            rounding_heuristic: false,
            diving: false,
            ..MipOptions::default()
        };
        let warm = solve_mip(&m, &no_heuristics).unwrap();
        let cold = solve_mip(
            &m,
            &MipOptions {
                warm_start: false,
                ..no_heuristics
            },
        )
        .unwrap();
        assert_eq!(warm.status, MipStatus::Optimal);
        assert!(
            (warm.best_objective.unwrap() - cold.best_objective.unwrap()).abs() < 1e-6,
            "warm {:?} vs cold {:?}",
            warm.best_objective,
            cold.best_objective
        );
        assert_eq!(cold.warm_started_nodes, 0);
        assert!(warm.nodes_explored > 1, "instance must branch");
        // Every non-root node has a parent basis; nearly all must accept it.
        assert!(
            warm.warm_started_nodes >= (warm.nodes_explored - 1) / 2,
            "only {} of {} nodes warm-started",
            warm.warm_started_nodes,
            warm.nodes_explored
        );
        // Warm starts must not cost pivots overall.
        assert!(
            warm.lp_iterations <= cold.lp_iterations,
            "warm {} pivots vs cold {}",
            warm.lp_iterations,
            cold.lp_iterations
        );
    }

    /// max Σ (1 + i%3)·xᵢ  s.t.  Σ (1 + i%4)·xᵢ ≤ 11.3 over 12 binaries:
    /// the root LP is fractional and one node cannot close the tree.
    fn fractional_knapsack() -> Model {
        let mut m = Model::new();
        let xs: Vec<_> = (0..12)
            .map(|i| m.add_binary(1.0 + (i % 3) as f64))
            .collect();
        m.set_objective_direction(Objective::Maximize);
        let mut e = crate::model::LinExpr::new();
        for (i, x) in xs.iter().enumerate() {
            e.push(*x, 1.0 + (i % 4) as f64);
        }
        m.add_constraint(e, Sense::Le, 11.3).unwrap();
        m
    }

    #[test]
    fn root_dive_starts_from_the_root_basis_and_its_pivots_count() {
        let m = fractional_knapsack();
        // Only the root node, so the two solves differ by the dive alone.
        let root_only = MipOptions {
            node_limit: Some(1),
            rounding_heuristic: false,
            ..MipOptions::default()
        };
        let dived = solve_mip(&m, &root_only).unwrap();
        let undived = solve_mip(
            &m,
            &MipOptions {
                diving: false,
                ..root_only
            },
        )
        .unwrap();
        assert_eq!(dived.nodes_explored, 1);
        assert!(dived.best_objective.is_some(), "the dive must find a point");

        // Replay the dive from the root LP.
        let core = LpCore::from_model(&m);
        let sx = SimplexOptions::default();
        let root = solve_lp_warm(&core, &core.lb, &core.ub, &sx, None).unwrap();
        let int_vars: Vec<usize> = (0..m.num_vars()).collect();
        let basis = root.snapshot.as_ref().and_then(|s| s.warm_start());
        let d = dive(
            &core, &m, &int_vars, &core.lb, &core.ub, &root.x, basis, &sx, 1e-6, 40,
        );
        assert!(d.point.is_some());
        assert!(d.lps >= 1 && d.iterations > 0, "{d:?}");
        assert_eq!(
            d.warm_lps, d.lps,
            "every dive LP, the first included, starts warm"
        );
        assert_eq!(dived.lp_iterations, undived.lp_iterations + d.iterations);
        assert_eq!(
            dived.refactorizations,
            undived.refactorizations + d.refactorizations
        );
    }

    #[test]
    fn root_start_skips_phase_one_and_is_not_a_seed() {
        // min 4a + b + 2c + 6d  s.t.  a + b = 1,  c + d = 1: a cold root
        // needs an artificial per equality row, a start at a feasible
        // vertex does not.
        let mut m = Model::new();
        let v: Vec<_> = [4.0, 1.0, 2.0, 6.0].map(|c| m.add_binary(c)).to_vec();
        m.add_constraint(lin(&[(v[0], 1.0), (v[1], 1.0)]), Sense::Eq, 1.0)
            .unwrap();
        m.add_constraint(lin(&[(v[2], 1.0), (v[3], 1.0)]), Sense::Eq, 1.0)
            .unwrap();
        let start = |x: &[f64]| MipOptions {
            root_start: Some(x.to_vec()),
            ..MipOptions::default()
        };
        let cold = default_solve(&m);
        let warm = solve_mip(&m, &start(&[1.0, 0.0, 0.0, 1.0])).unwrap();
        assert_eq!(warm.best_objective, Some(3.0));
        assert_eq!(warm.best_solution, cold.best_solution);
        assert!(!warm.incumbent_seeded);
        assert_eq!(
            warm.warm_started_nodes, 0,
            "the root is not a warm-started node"
        );
        assert!(
            warm.lp_iterations < cold.lp_iterations,
            "{} vs {}",
            warm.lp_iterations,
            cold.lp_iterations
        );
        // Off a bound, infeasible or mis-sized: ignored, pivot for pivot.
        for x in [&[0.5, 0.5, 0.0, 1.0][..], &[1.0, 1.0, 0.0, 1.0], &[1.0]] {
            let r = solve_mip(&m, &start(x)).unwrap();
            assert_eq!(r.lp_iterations, cold.lp_iterations, "{x:?}");
        }
    }

    #[test]
    fn root_start_is_not_an_incumbent() {
        // max x + y  s.t.  x + y <= 1.5: the root LP is fractional, so
        // after one node without heuristics only a seed could have left
        // an incumbent.
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.5)
            .unwrap();
        let opts = MipOptions {
            node_limit: Some(1),
            rounding_heuristic: false,
            diving: false,
            root_start: Some(vec![1.0, 0.0]),
            ..MipOptions::default()
        };
        let r = solve_mip(&m, &opts).unwrap();
        assert_eq!(r.nodes_explored, 1);
        assert_eq!(
            r.best_objective, None,
            "the start point is not the incumbent"
        );
        let full = solve_mip(
            &m,
            &MipOptions {
                node_limit: None,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(full.status, MipStatus::Optimal);
        assert_eq!(full.best_objective, Some(1.0));
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_node() {
        use crate::control::{CancelToken, SolveControl};
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.5)
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let r = solve_mip(
            &m,
            &MipOptions {
                control: SolveControl::with_cancel(token),
                ..MipOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Unknown);
        assert_eq!(r.stop_reason, Some(crate::error::StopReason::Cancelled));
        assert_eq!(r.nodes_explored, 0);
    }

    #[test]
    fn zero_time_limit_reports_deadline_stop() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Le, 1.0).unwrap();
        let r = solve_mip(
            &m,
            &MipOptions {
                time_limit: Some(Duration::ZERO),
                ..MipOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.stop_reason, Some(crate::error::StopReason::Deadline));
        assert_eq!(r.nodes_explored, 0);
    }

    #[test]
    fn node_limit_reports_node_limit_stop() {
        let m = fractional_knapsack();
        let r = solve_mip(
            &m,
            &MipOptions {
                node_limit: Some(1),
                rounding_heuristic: false,
                diving: false,
                ..MipOptions::default()
            },
        )
        .unwrap();
        // The instance needs branching, so one node cannot close the tree.
        assert_eq!(r.stop_reason, Some(crate::error::StopReason::NodeLimit));
    }

    #[test]
    fn observer_hears_incumbents_on_a_clean_solve() {
        use crate::control::{CollectingObserver, SolveControl};
        use std::sync::Arc;
        let obs = Arc::new(CollectingObserver::default());
        let mut m = Model::new();
        let a = m.add_binary(10.0);
        let b = m.add_binary(13.0);
        let c = m.add_binary(7.0);
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(a, 3.0), (b, 4.0), (c, 2.0)]), Sense::Le, 6.0)
            .unwrap();
        let r = solve_mip(
            &m,
            &MipOptions {
                control: SolveControl {
                    cancel: None,
                    observer: Some(obs.clone()),
                },
                ..MipOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(r.stop_reason.is_none());
        let incumbents = obs.incumbents();
        assert!(
            !incumbents.is_empty(),
            "optimal solve must report an incumbent"
        );
        // The last reported incumbent is the final objective.
        let (last_obj, _) = incumbents.last().unwrap();
        assert!((last_obj - r.best_objective.unwrap()).abs() < 1e-6);
    }

    #[test]
    fn fractional_integer_bounds_tightened() {
        // x integer in [0.4, 2.7] -> effectively [1, 2].
        let mut m = Model::new();
        let x = m.add_integer(0.4, 2.7, -1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Le, 10.0).unwrap();
        let r = default_solve(&m);
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.best_solution.unwrap()[0] - 2.0).abs() < 1e-9);
    }
}
