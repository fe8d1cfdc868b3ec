//! Two-phase primal simplex for linear programs with bounded variables.
//!
//! The engine is a revised simplex that never forms a basis inverse:
//! pricing and ratio tests solve the FTRAN/BTRAN systems `B w = aⱼ` and
//! `Bᵀ y = c_B` through a pluggable [`BasisFactorization`] backend
//! (selected by [`SimplexOptions::basis`]):
//!
//! * [`BasisBackend::SparseLu`] (default) — sparse LU with
//!   Markowitz-style pivoting plus a product-form eta file, rebuilt every
//!   [`SimplexOptions::refactor_every`] pivots (or earlier when the eta
//!   file grows fat). Per-pivot work tracks the factor/eta nonzeros, which
//!   on the slack-heavy bases of branch-and-bound node LPs is far below
//!   the dense inverse's O(m²).
//! * [`BasisBackend::Dense`] — the explicit dense inverse, rank-1 updated
//!   per pivot; the original strategy, retained as a reference/fallback
//!   that wins only on tiny or pathologically dense bases.
//!
//! The constraint matrix stays sparse (CSC); slack and artificial columns
//! are represented implicitly as unit columns.
//!
//! **Pricing.** The entering column is chosen by a pluggable
//! [`PricingRule`]: classic Dantzig full pricing (scan every nonbasic
//! column, take the worst reduced cost), candidate-window **partial
//! pricing** (scan a rotating window and fall back to a full scan before
//! declaring optimality), or **devex** reference weights (a steepest-edge
//! approximation updated per pivot and reset whenever the basis is
//! refactorized). Bland's anti-cycling rule overrides all of them once a
//! stall is detected.
//!
//! A cold start obtains feasibility (phase 1) by adding one artificial
//! variable per row whose slack cannot absorb the initial residual, then
//! minimizing the artificial sum; on an assignment model that is one
//! artificial per equality row, and phase 1 is most of the pivots. Phase 2
//! fixes artificials to zero and optimizes the real objective. Degenerate
//! cycling is broken by switching to Bland's rule after a stall is
//! detected.
//!
//! **Warm starts.** [`solve_lp_warm`] accepts a starting basis and skips
//! phase 1 whenever that basis can be made primal feasible. Two kinds
//! are supplied:
//!
//! * the final basis of a previous solve over the same matrix (the parent
//!   node in branch-and-bound, or the root for the root dive, via
//!   [`BasisSnapshot::warm_start`]). Bound changes leave reduced costs
//!   intact, so that basis stays dual feasible, and a short
//!   bounded-variable **dual simplex** loop restores primal feasibility;
//! * the slack basis at a feasible vertex of the bound box
//!   ([`WarmStart::at_vertex`]), e.g. a known integer solution at the
//!   root. It is primal feasible as installed, so phase 2 starts at once.
//!
//! Any numerical doubt falls back to the cold two-phase path, so warm
//! starting is a pure optimization, never a correctness risk.

use crate::error::{IlpError, LpStatus};
use crate::linalg::{
    sparse_dot, BasisBackend, BasisFactorization, Factorizer,
};
use crate::model::Sense;
use crate::standard::LpCore;

/// Nonbasic/basic classification of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// Basic in the given row.
    Basic(u32),
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
    /// Nonbasic free variable resting at zero.
    Free,
}

/// Entering-column pricing rule for the simplex pivot loop.
///
/// All rules find the same optimum (they only change which improving
/// column enters first); they trade scan cost per iteration against
/// pivot count. Bland's anti-cycling rule overrides the configured rule
/// whenever the stall detector engages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Full Dantzig pricing: scan every nonbasic column and enter the one
    /// with the largest reduced-cost violation. The reference rule.
    #[default]
    Dantzig,
    /// Candidate-window partial pricing: scan a rotating window of
    /// columns starting at a persistent cursor and enter the best
    /// candidate seen; when the window is dry the scan keeps extending
    /// (refilling the list) until a candidate appears or every column has
    /// been examined, so optimality is only declared after a full scan.
    Partial,
    /// Devex reference weights: enter the column maximizing `d²/w` where
    /// `w` approximates the steepest-edge norm. Weights are updated per
    /// pivot (the cheap leaving-variable update) and reset to the unit
    /// reference framework at every refactorization.
    Devex,
}

impl PricingRule {
    /// Every rule, in ablation/reporting order.
    pub const ALL: [PricingRule; 3] =
        [PricingRule::Dantzig, PricingRule::Partial, PricingRule::Devex];

    /// Stable lowercase name (CLI flag values, bench JSON keys).
    pub fn as_str(self) -> &'static str {
        match self {
            PricingRule::Dantzig => "dantzig",
            PricingRule::Partial => "partial",
            PricingRule::Devex => "devex",
        }
    }

    /// Parse the [`PricingRule::as_str`] rendering back.
    pub fn from_name(s: &str) -> Option<PricingRule> {
        match s {
            "dantzig" => Some(PricingRule::Dantzig),
            "partial" => Some(PricingRule::Partial),
            "devex" => Some(PricingRule::Devex),
            _ => None,
        }
    }
}

impl std::fmt::Display for PricingRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tunable solver parameters.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on total pivots across both phases (0 = automatic).
    pub max_iters: usize,
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Reduced-cost optimality tolerance.
    pub opt_tol: f64,
    /// Minimum acceptable pivot magnitude.
    pub pivot_tol: f64,
    /// Pivots between basis refactorizations.
    pub refactor_every: usize,
    /// Iterations without objective progress before Bland's rule engages.
    pub stall_limit: usize,
    /// Basis factorization backend.
    pub basis: BasisBackend,
    /// Entering-column pricing rule.
    pub pricing: PricingRule,
    /// Abort with [`IlpError::Deadline`] past this instant (checked every
    /// few pivots, so a single long LP cannot overshoot a MIP time limit).
    pub deadline: Option<std::time::Instant>,
    /// Abort with [`IlpError::Cancelled`] once this token is cancelled
    /// (polled alongside the deadline — one atomic load every few
    /// pivots, never per-iteration syscalls).
    pub cancel: Option<crate::control::CancelToken>,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iters: 0,
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            pivot_tol: 1e-9,
            refactor_every: 64,
            stall_limit: 256,
            basis: BasisBackend::default(),
            pricing: PricingRule::default(),
            deadline: None,
            cancel: None,
        }
    }
}

/// Snapshot of the final basis, enough to warm-start a sibling solve.
#[derive(Debug, Clone)]
pub struct BasisSnapshot {
    /// Variable occupying each basis row (an artificial column index when
    /// phase 1 left one basic).
    pub basis: Vec<u32>,
    /// Status of every internal column (structural, then slacks).
    pub status: Vec<VarStatus>,
}

impl BasisSnapshot {
    /// Extract a warm-start basis for a re-solve over the same matrix
    /// with different bounds. `None` when an artificial variable is still
    /// basic (rare degenerate phase-1 leftover) — such a basis does not
    /// exist in the artificial-free warm solve.
    pub fn warm_start(&self) -> Option<WarmStart> {
        let n_internal = self.status.len();
        if self.basis.iter().any(|&b| (b as usize) >= n_internal) {
            return None;
        }
        Some(WarmStart {
            basis: self.basis.clone(),
            status: self.status.clone(),
        })
    }
}

/// A starting basis (row occupants + column statuses) over an `LpCore`,
/// used to skip phase 1. Build via [`BasisSnapshot::warm_start`] from a
/// previous solve of the same core, or via [`WarmStart::at_vertex`].
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Variable basic in each row (length `m`).
    pub basis: Vec<u32>,
    /// Status per internal column, structural then slacks (length
    /// `n_struct + m`).
    pub status: Vec<VarStatus>,
}

impl WarmStart {
    /// The slack basis at a vertex `x` of the bound box `[lb, ub]` of an
    /// LP with `m` rows: each structural is nonbasic at the bound it sits
    /// on, and each row's slack is basic in its own row. That basis is the
    /// identity, and it is primal feasible exactly when `x` satisfies the
    /// rows (an equality row's slack is then basic at 0), so a solve
    /// started from a feasible `x` goes straight to phase 2. `None` when
    /// some entry of `x` is not exactly on one of its bounds.
    pub fn at_vertex(x: &[f64], lb: &[f64], ub: &[f64], m: usize) -> Option<WarmStart> {
        let n = x.len();
        if lb.len() != n || ub.len() != n {
            return None;
        }
        let mut status = Vec::with_capacity(n + m);
        for j in 0..n {
            status.push(if x[j] == lb[j] {
                VarStatus::Lower
            } else if x[j] == ub[j] {
                VarStatus::Upper
            } else {
                return None;
            });
        }
        status.extend((0..m as u32).map(VarStatus::Basic));
        Some(WarmStart {
            basis: (n as u32..(n + m) as u32).collect(),
            status,
        })
    }
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    pub status: LpStatus,
    /// Structural variable values (meaningful when `status == Optimal`).
    pub x: Vec<f64>,
    /// Objective in the user's sense, including any offset.
    pub objective: f64,
    /// Total simplex pivots across both phases (including dual
    /// feasibility-restoration pivots on warm starts).
    pub iterations: usize,
    /// Whether a warm-start basis was accepted and phase 1 skipped.
    pub warm_started: bool,
    /// Basis factorizations performed (the initial factorization plus
    /// every scheduled or eta-budget-triggered rebuild).
    pub refactorizations: u64,
    /// Peak eta-file nonzero count observed between refactorizations
    /// (0 for the dense backend, which folds updates in place).
    pub eta_nnz_peak: u64,
    /// Final basis, for child and dive warm starts (only on `Optimal`).
    pub snapshot: Option<BasisSnapshot>,
}

/// Solve the LP defined by `core` with per-variable bounds `lb`/`ub`
/// (overriding the core's defaults; slices must have structural length).
///
/// ```
/// use gmm_ilp::model::{lin, Model, Sense};
/// use gmm_ilp::simplex::{solve_lp, SimplexOptions};
/// use gmm_ilp::standard::LpCore;
/// use gmm_ilp::LpStatus;
///
/// // minimize -x - y  s.t.  x + 2y <= 4,  3x + y <= 6,  x,y in [0, 10]
/// let mut m = Model::new();
/// let x = m.add_continuous(0.0, 10.0, -1.0).unwrap();
/// let y = m.add_continuous(0.0, 10.0, -1.0).unwrap();
/// m.add_constraint(lin(&[(x, 1.0), (y, 2.0)]), Sense::Le, 4.0).unwrap();
/// m.add_constraint(lin(&[(x, 3.0), (y, 1.0)]), Sense::Le, 6.0).unwrap();
///
/// let core = LpCore::from_model(&m);
/// let sol = solve_lp(&core, &core.lb, &core.ub, &SimplexOptions::default()).unwrap();
/// assert_eq!(sol.status, LpStatus::Optimal);
/// assert!((sol.objective - (-2.8)).abs() < 1e-6); // x = 1.6, y = 1.2
/// ```
pub fn solve_lp(
    core: &LpCore,
    lb: &[f64],
    ub: &[f64],
    opts: &SimplexOptions,
) -> Result<LpSolution, IlpError> {
    solve_lp_warm(core, lb, ub, opts, None)
}

/// Like [`solve_lp`], seeded with a warm-start basis from a previous
/// solve over the same matrix. Falls back to the cold two-phase path
/// whenever the warm basis cannot be validated or dual feasibility
/// restoration stalls.
pub fn solve_lp_warm(
    core: &LpCore,
    lb: &[f64],
    ub: &[f64],
    opts: &SimplexOptions,
    warm: Option<&WarmStart>,
) -> Result<LpSolution, IlpError> {
    Solver::new(core, lb, ub, opts.clone())?.run(warm)
}

/// Solve with the core's own bounds.
pub fn solve_lp_default(core: &LpCore, opts: &SimplexOptions) -> Result<LpSolution, IlpError> {
    solve_lp(core, &core.lb, &core.ub, opts)
}

const INF: f64 = f64::INFINITY;

struct Solver<'a> {
    core: &'a LpCore,
    opts: SimplexOptions,
    m: usize,
    n_struct: usize,
    /// Total columns: structural + m slacks + artificials.
    n_total: usize,
    /// Artificial column descriptors: (row, sign).
    artificials: Vec<(u32, f64)>,
    /// First artificial column index (== n_struct + m).
    art_base: usize,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Phase-2 costs for every column (artificials cost 0).
    costs: Vec<f64>,
    status: Vec<VarStatus>,
    basis: Vec<u32>,
    x: Vec<f64>,
    factor: Factorizer,
    /// Scratch: simplex multipliers y = B⁻ᵀ c_B.
    y: Vec<f64>,
    /// Scratch: FTRAN image w = B⁻¹ aⱼ.
    w: Vec<f64>,
    iterations: usize,
    pivots_since_refactor: usize,
    /// Basis factorizations performed so far (initial + rebuilds).
    refactorizations: u64,
    /// Rotating scan cursor for [`PricingRule::Partial`].
    pricing_cursor: usize,
    /// Devex reference weights per column (lazily sized to `n_total`;
    /// reset to 1.0 whenever the basis is refactorized).
    devex_w: Vec<f64>,
}

enum Phase {
    One,
    Two,
}

impl<'a> Solver<'a> {
    fn new(
        core: &'a LpCore,
        lb_in: &[f64],
        ub_in: &[f64],
        opts: SimplexOptions,
    ) -> Result<Self, IlpError> {
        let m = core.num_rows();
        let n_struct = core.num_structural();
        if n_struct == 0 {
            return Err(IlpError::EmptyModel);
        }
        debug_assert_eq!(lb_in.len(), n_struct);
        debug_assert_eq!(ub_in.len(), n_struct);

        // Bounds: structural, then slack bounds by row sense.
        let mut lb = Vec::with_capacity(n_struct + m);
        let mut ub = Vec::with_capacity(n_struct + m);
        lb.extend_from_slice(lb_in);
        ub.extend_from_slice(ub_in);
        for s in &core.senses {
            match s {
                Sense::Le => {
                    lb.push(0.0);
                    ub.push(INF);
                }
                Sense::Ge => {
                    lb.push(-INF);
                    ub.push(0.0);
                }
                Sense::Eq => {
                    lb.push(0.0);
                    ub.push(0.0);
                }
            }
        }
        for j in 0..n_struct {
            if lb[j] > ub[j] {
                return Err(IlpError::EmptyBound {
                    var: j,
                    lb: lb[j],
                    ub: ub[j],
                });
            }
        }

        let mut costs = Vec::with_capacity(n_struct + m);
        costs.extend_from_slice(&core.costs);
        costs.extend(std::iter::repeat_n(0.0, m));

        let factor = Factorizer::new(opts.basis);
        Ok(Solver {
            core,
            opts,
            m,
            n_struct,
            n_total: n_struct + m,
            artificials: Vec::new(),
            art_base: n_struct + m,
            lb,
            ub,
            costs,
            status: Vec::new(),
            basis: Vec::new(),
            x: Vec::new(),
            factor,
            y: vec![0.0; m],
            w: vec![0.0; m],
            iterations: 0,
            pivots_since_refactor: 0,
            refactorizations: 0,
            pricing_cursor: 0,
            devex_w: Vec::new(),
        })
    }

    /// Column `j` as sparse (rows, values); slacks and artificials are unit
    /// columns handled via the returned small buffers.
    #[inline]
    fn column(&self, j: usize) -> ColRef<'a> {
        if j < self.n_struct {
            let (idx, val) = self.core.a.column(j);
            ColRef::Struct(idx, val)
        } else if j < self.art_base {
            ColRef::Unit((j - self.n_struct) as u32, 1.0)
        } else {
            let (row, sign) = self.artificials[j - self.art_base];
            ColRef::Unit(row, sign)
        }
    }

    /// Dot product of column `j` with a dense row-space vector.
    #[inline]
    fn col_dot(&self, j: usize, v: &[f64]) -> f64 {
        match self.column(j) {
            ColRef::Struct(idx, val) => sparse_dot(idx, val, v),
            ColRef::Unit(row, sign) => sign * v[row as usize],
        }
    }

    /// Reduced cost of column `j` given the current `y`.
    #[inline]
    fn reduced_cost(&self, j: usize, cost_j: f64) -> f64 {
        cost_j - self.col_dot(j, &self.y)
    }

    /// FTRAN: `w = B⁻¹ A_j`.
    fn compute_w(&mut self, j: usize) {
        self.w.fill(0.0);
        match self.column(j) {
            ColRef::Struct(idx, val) => {
                for (&r, &v) in idx.iter().zip(val) {
                    self.w[r as usize] = v;
                }
            }
            ColRef::Unit(row, sign) => self.w[row as usize] = sign,
        }
        self.factor.ftran(&mut self.w);
    }

    /// Initialize statuses, the starting basis (slacks where possible,
    /// artificials elsewhere), and the value vector.
    fn initialize(&mut self) -> Result<(), IlpError> {
        let m = self.m;
        let n_struct = self.n_struct;
        self.status = Vec::with_capacity(self.n_total);
        self.x = Vec::with_capacity(self.n_total);

        // Structural variables start at the finite bound closest to zero.
        for j in 0..n_struct {
            let (l, u) = (self.lb[j], self.ub[j]);
            let (st, v) = if l.is_finite() && u.is_finite() {
                if l.abs() <= u.abs() {
                    (VarStatus::Lower, l)
                } else {
                    (VarStatus::Upper, u)
                }
            } else if l.is_finite() {
                (VarStatus::Lower, l)
            } else if u.is_finite() {
                (VarStatus::Upper, u)
            } else {
                (VarStatus::Free, 0.0)
            };
            self.status.push(st);
            self.x.push(v);
        }

        // Row residuals with all structural variables at their start value.
        let mut resid: Vec<f64> = self.core.rhs.clone();
        for j in 0..n_struct {
            let xj = self.x[j];
            if xj != 0.0 {
                let (idx, val) = self.core.a.column(j);
                for (&r, &v) in idx.iter().zip(val) {
                    resid[r as usize] -= v * xj;
                }
            }
        }

        // Slack columns: basic when the residual fits their bounds,
        // otherwise clamped nonbasic. Rows whose slack cannot absorb the
        // residual get an artificial in a second pass so that column
        // indices stay contiguous (structural, slacks, artificials).
        self.basis = vec![0; m];
        self.artificials.clear();
        let mut need_art: Vec<(usize, f64)> = Vec::new();
        for i in 0..m {
            let j = n_struct + i;
            let (l, u) = (self.lb[j], self.ub[j]);
            let want = resid[i];
            if want >= l - self.opts.feas_tol && want <= u + self.opts.feas_tol {
                self.status.push(VarStatus::Basic(i as u32));
                self.x.push(want.clamp(l.min(u), u.max(l)));
                self.basis[i] = j as u32;
            } else {
                // Clamp toward the violated side. The status is decided by
                // the same branch that picked the bound — never by a float
                // equality on the clamped value — so a degenerate slack
                // with `l == u` (equality rows) deterministically
                // classifies as `Lower` no matter how the two bounds were
                // computed.
                let (clamped, st) = if want < l || u <= l {
                    (l, VarStatus::Lower)
                } else {
                    (u, VarStatus::Upper)
                };
                self.status.push(st);
                self.x.push(clamped);
                need_art.push((i, want - clamped));
            }
        }
        for (i, leftover) in need_art {
            let sign = if leftover >= 0.0 { 1.0 } else { -1.0 };
            let aj = n_struct + m + self.artificials.len();
            self.artificials.push((i as u32, sign));
            self.basis[i] = aj as u32;
            self.lb.push(0.0);
            self.ub.push(INF);
            self.costs.push(0.0);
            self.status.push(VarStatus::Basic(i as u32));
            self.x.push(leftover.abs());
        }
        self.n_total = n_struct + m + self.artificials.len();
        // The starting basis is diagonal (±1 entries): factor it so the
        // backend is ready for FTRAN/BTRAN immediately.
        self.refactorize()
    }

    /// Rebuild the factorization from the basis columns; also refresh
    /// basic values.
    fn refactorize(&mut self) -> Result<(), IlpError> {
        let m = self.m;
        if m == 0 {
            self.pivots_since_refactor = 0;
            return Ok(());
        }
        let cols: Vec<Vec<(u32, f64)>> = self
            .basis
            .iter()
            .map(|&bj| match self.column(bj as usize) {
                ColRef::Struct(idx, val) => idx.iter().copied().zip(val.iter().copied()).collect(),
                ColRef::Unit(row, sign) => vec![(row, sign)],
            })
            .collect();
        self.factor
            .refactor(m, &cols, self.opts.pivot_tol)
            .map_err(|_| IlpError::Numerical("singular basis at refactorization".into()))?;
        self.recompute_basics();
        self.pivots_since_refactor = 0;
        self.refactorizations += 1;
        // Fresh factors invalidate the devex steepest-edge approximation:
        // restart from the unit reference framework.
        if !self.devex_w.is_empty() {
            self.devex_w.fill(1.0);
        }
        Ok(())
    }

    /// Recompute basic variable values from nonbasic values.
    fn recompute_basics(&mut self) {
        let m = self.m;
        let mut rhs_eff: Vec<f64> = self.core.rhs.clone();
        for j in 0..self.n_total {
            if matches!(self.status[j], VarStatus::Basic(_)) {
                continue;
            }
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            match self.column(j) {
                ColRef::Struct(idx, val) => {
                    for (&r, &v) in idx.iter().zip(val) {
                        rhs_eff[r as usize] -= v * xj;
                    }
                }
                ColRef::Unit(row, sign) => rhs_eff[row as usize] -= sign * xj,
            }
        }
        self.factor.ftran(&mut rhs_eff);
        for (i, &bj) in self.basis.iter().enumerate() {
            self.x[bj as usize] = rhs_eff[i];
        }
        debug_assert_eq!(rhs_eff.len(), m);
    }

    /// Pivot bookkeeping shared by the primal and dual loops: absorb the
    /// basis change into the factorization (updating the devex weights if
    /// that rule is active), refactorizing when the eta file outgrows its
    /// fill-in budget — with [`SimplexOptions::refactor_every`] kept as
    /// the hard pivot-count ceiling. `leaving` is the column that just
    /// left basis row `r`; `self.w` still holds the entering column's
    /// FTRAN image.
    fn absorb_pivot(&mut self, r: usize, leaving: usize) -> Result<(), IlpError> {
        if self.factor.update(r, &self.w, self.opts.pivot_tol).is_err() {
            return Err(IlpError::Numerical("vanishing pivot in basis update".into()));
        }
        if self.opts.pricing == PricingRule::Devex {
            self.devex_update(r, leaving);
        }
        self.pivots_since_refactor += 1;
        // Forrest–Tomlin-style length bound: replaying the eta file on
        // every FTRAN/BTRAN must stay a bounded multiple of the base
        // factor solve, so the budget scales with the factor's own
        // nonzeros rather than a blind pivot count. The dense backend
        // reports zero factor nonzeros (updates fold in place); keep the
        // legacy absolute bound there.
        let update_nnz = self.factor.update_nnz();
        let eta_budget = match self.factor.factor_nnz() {
            0 => (8 * self.m).max(512),
            fnnz => (2 * fnnz).max(self.m).max(64),
        };
        if self.pivots_since_refactor >= self.opts.refactor_every || update_nnz > eta_budget {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Cheap devex update (the leaving-variable rule): the variable that
    /// just left row `r` re-enters the nonbasic set with weight
    /// `max(w_entering / αᵣ², 1)`, where `αᵣ = w[r]` is the pivot
    /// element. Remaining weights keep their last value until the next
    /// refactorization resets the reference framework.
    fn devex_update(&mut self, r: usize, leaving: usize) {
        if self.devex_w.len() < self.n_total {
            self.devex_w.resize(self.n_total, 1.0);
        }
        let alpha_r = self.w[r];
        if alpha_r == 0.0 {
            return;
        }
        let entering = self.basis[r] as usize;
        let wl = (self.devex_w[entering] / (alpha_r * alpha_r)).max(1.0);
        if wl > 1e12 {
            // A blown-up weight means the framework is stale beyond
            // repair: restart it rather than poisoning future scores.
            self.devex_w.fill(1.0);
        } else {
            self.devex_w[leaving] = wl;
        }
    }

    /// Install a warm-start basis. Errors (returning `false`) leave the
    /// solver ready for a cold start instead.
    fn install_warm(&mut self, warm: &WarmStart) -> bool {
        let base = self.n_struct + self.m;
        if warm.basis.len() != self.m || warm.status.len() != base {
            return false;
        }
        // Validate the basis/status cross-references before trusting them:
        // every basis row must point at a column marked basic in that row,
        // and no *other* column may claim basic status (it would silently
        // be frozen out of pricing).
        for (i, &bj) in warm.basis.iter().enumerate() {
            if bj as usize >= base
                || !matches!(warm.status[bj as usize], VarStatus::Basic(r) if r as usize == i)
            {
                return false;
            }
        }
        let basic_count = warm
            .status
            .iter()
            .filter(|s| matches!(s, VarStatus::Basic(_)))
            .count();
        if basic_count != self.m {
            return false;
        }
        self.artificials.clear();
        self.n_total = base;
        self.status = warm.status.clone();
        self.basis = warm.basis.clone();
        self.x = vec![0.0; base];
        for j in 0..base {
            match self.status[j] {
                VarStatus::Basic(_) => {}
                VarStatus::Lower => {
                    if !self.lb[j].is_finite() {
                        return false;
                    }
                    self.x[j] = self.lb[j];
                }
                VarStatus::Upper => {
                    if !self.ub[j].is_finite() {
                        return false;
                    }
                    self.x[j] = self.ub[j];
                }
                VarStatus::Free => self.x[j] = 0.0,
            }
        }
        // Factor the warm basis; `refactorize` also computes basic values.
        self.refactorize().is_ok()
    }

    /// Bounded-variable dual simplex: starting from a (near) dual-feasible
    /// warm basis, drive out primal bound violations. Returns `Ok(true)`
    /// on primal feasibility, `Ok(false)` when the caller should fall back
    /// to a cold start (stall, vanished pivots, no entering column).
    fn restore_primal_feasibility(&mut self) -> Result<bool, IlpError> {
        let costs = self.costs.clone();
        let feas_tol = self.opts.feas_tol;
        // Warm bases are one bound-change away from feasible: a handful of
        // pivots suffices, so a small budget keeps pathological cases from
        // costing more than the cold start they fall back to.
        let mut budget = 2 * self.m + 64;
        let mut rho = vec![0.0; self.m];
        loop {
            if let Some(dl) = self.opts.deadline {
                if std::time::Instant::now() >= dl {
                    return Err(IlpError::Deadline);
                }
            }
            if self.opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                return Err(IlpError::Cancelled);
            }
            // Leaving choice: the basic variable with the worst violation.
            // Under devex the violation is weighted by the same reference
            // weights the primal pricing uses (`viol²/w`, the dual analog
            // of the steepest-edge approximation); the other rules keep
            // the plain worst-violation scan — it is O(m) and cheap next
            // to the full-column dual ratio test below, which must scan
            // everything for correctness regardless of pricing rule.
            let devex = self.opts.pricing == PricingRule::Devex;
            let mut leave: Option<(usize, bool)> = None;
            let mut worst = 0.0f64;
            for i in 0..self.m {
                let bj = self.basis[i] as usize;
                let xb = self.x[bj];
                let (viol, below) = if xb < self.lb[bj] - feas_tol {
                    (self.lb[bj] - xb, true)
                } else if xb > self.ub[bj] + feas_tol {
                    (xb - self.ub[bj], false)
                } else {
                    continue;
                };
                let score = if devex {
                    viol * viol / self.devex_w.get(bj).copied().unwrap_or(1.0)
                } else {
                    viol
                };
                if leave.is_none() || score > worst {
                    worst = score;
                    leave = Some((i, below));
                }
            }
            let Some((r, below)) = leave else {
                return Ok(true); // primal feasible
            };
            if budget == 0 {
                return Ok(false);
            }
            budget -= 1;

            // ρ = row r of B⁻¹; α_j = ρ·a_j is the pivot-row entry.
            rho.fill(0.0);
            rho[r] = 1.0;
            self.factor.btran(&mut rho);
            // Multipliers for reduced costs (dual ratio test).
            for (i, &b) in self.basis.iter().enumerate() {
                self.y[i] = costs[b as usize];
            }
            self.factor.btran(&mut self.y);

            let mut best: Option<(usize, f64)> = None; // (entering, dir)
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..self.n_total {
                if matches!(self.status[j], VarStatus::Basic(_)) {
                    continue;
                }
                if self.ub[j] - self.lb[j] <= 0.0 {
                    continue; // fixed: cannot enter
                }
                let alpha = self.col_dot(j, &rho);
                if alpha.abs() <= self.opts.pivot_tol {
                    continue;
                }
                // The leaving variable moves by -dir·t·α; it must head
                // toward its violated bound.
                let (dir, eligible) = match self.status[j] {
                    VarStatus::Lower => (1.0, if below { alpha < 0.0 } else { alpha > 0.0 }),
                    VarStatus::Upper => (-1.0, if below { alpha > 0.0 } else { alpha < 0.0 }),
                    VarStatus::Free => {
                        let dir = if below == (alpha < 0.0) { 1.0 } else { -1.0 };
                        (dir, true)
                    }
                    VarStatus::Basic(_) => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                // Dual ratio: the entering column whose reduced cost hits
                // zero first preserves dual feasibility.
                let d = self.reduced_cost(j, costs[j]);
                let ratio = d.abs() / alpha.abs();
                if ratio < best_ratio - 1e-12
                    || (ratio <= best_ratio + 1e-12 && alpha.abs() > best_alpha)
                {
                    best_ratio = ratio;
                    best_alpha = alpha.abs();
                    best = Some((j, dir));
                }
            }
            // No eligible entering column means the LP is primal
            // infeasible — but prove that through the artificial-variable
            // path rather than trusting warm-start numerics.
            let Some((entering, dir)) = best else {
                return Ok(false);
            };

            self.compute_w(entering);
            let wr = self.w[r];
            if wr.abs() <= self.opts.pivot_tol {
                return Ok(false);
            }
            let leaving = self.basis[r] as usize;
            let target = if below { self.lb[leaving] } else { self.ub[leaving] };
            let t = ((self.x[leaving] - target) / (dir * wr)).max(0.0);

            // If the step would push the entering variable past its own
            // opposite bound, flip it there instead (basis unchanged) and
            // re-examine the still-violated row.
            let span = self.ub[entering] - self.lb[entering];
            if span.is_finite() && t > span + 1e-12 {
                for i in 0..self.m {
                    let bj = self.basis[i] as usize;
                    self.x[bj] -= dir * span * self.w[i];
                }
                self.status[entering] = if dir > 0.0 { VarStatus::Upper } else { VarStatus::Lower };
                self.x[entering] = if dir > 0.0 { self.ub[entering] } else { self.lb[entering] };
                self.iterations += 1;
                continue;
            }

            for i in 0..self.m {
                let bj = self.basis[i] as usize;
                self.x[bj] -= dir * t * self.w[i];
            }
            self.x[entering] += dir * t;
            self.x[leaving] = target; // snap exactly onto the bound
            self.status[leaving] = if below { VarStatus::Lower } else { VarStatus::Upper };
            self.status[entering] = VarStatus::Basic(r as u32);
            self.basis[r] = entering as u32;
            self.iterations += 1;
            if self.absorb_pivot(r, leaving).is_err() {
                return Ok(false);
            }
        }
    }

    fn run(mut self, warm: Option<&WarmStart>) -> Result<LpSolution, IlpError> {
        let mut warm_started = false;
        if let Some(ws) = warm {
            if self.install_warm(ws) {
                match self.restore_primal_feasibility() {
                    Ok(true) => warm_started = true,
                    Ok(false) => {}
                    Err(e) => return Err(e),
                }
            }
        }

        if !warm_started {
            // Cold start: drop any half-installed warm state and run the
            // artificial-variable phase 1.
            let base = self.n_struct + self.m;
            self.lb.truncate(base);
            self.ub.truncate(base);
            self.costs.truncate(base);
            self.initialize()?;
        }

        let max_iters = if self.opts.max_iters > 0 {
            self.opts.max_iters
        } else {
            20_000 + 50 * (self.m + self.n_total)
        };

        if !self.artificials.is_empty() {
            // Phase 1: minimize sum of artificials.
            let mut p1_costs = vec![0.0; self.n_total];
            for k in 0..self.artificials.len() {
                p1_costs[self.art_base + k] = 1.0;
            }
            let status = self.optimize(&p1_costs, max_iters, Phase::One)?;
            if status == LpStatus::Unbounded {
                return Err(IlpError::Numerical(
                    "phase-1 objective unbounded below zero".into(),
                ));
            }
            let infeas: f64 = (0..self.artificials.len())
                .map(|k| self.x[self.art_base + k])
                .sum();
            if infeas > self.opts.feas_tol * 10.0 * (1.0 + self.m as f64).sqrt() {
                return Ok(LpSolution {
                    status: LpStatus::Infeasible,
                    x: Vec::new(),
                    objective: f64::NAN,
                    iterations: self.iterations,
                    warm_started: false,
                    refactorizations: self.refactorizations,
                    eta_nnz_peak: self.factor.eta_nnz_peak() as u64,
                    snapshot: None,
                });
            }
            // Fix artificials at zero for phase 2.
            for k in 0..self.artificials.len() {
                let j = self.art_base + k;
                self.ub[j] = 0.0;
                if !matches!(self.status[j], VarStatus::Basic(_)) {
                    self.status[j] = VarStatus::Lower;
                    self.x[j] = 0.0;
                }
            }
        }

        // Phase 2: the real objective.
        let costs = self.costs.clone();
        let status = self.optimize(&costs, max_iters, Phase::Two)?;
        if status == LpStatus::Unbounded {
            return Ok(LpSolution {
                status: LpStatus::Unbounded,
                x: Vec::new(),
                objective: f64::NAN,
                iterations: self.iterations,
                warm_started,
                refactorizations: self.refactorizations,
                eta_nnz_peak: self.factor.eta_nnz_peak() as u64,
                snapshot: None,
            });
        }

        let internal_obj: f64 = (0..self.n_struct).map(|j| self.costs[j] * self.x[j]).sum();
        let objective = self.core.user_objective(internal_obj);
        let x_struct = self.x[..self.n_struct].to_vec();
        // `run` consumes the solver: move the basis state into the
        // snapshot instead of cloning it (this runs once per B&B node).
        self.status.truncate(self.n_struct + self.m);
        Ok(LpSolution {
            status: LpStatus::Optimal,
            x: x_struct,
            objective,
            iterations: self.iterations,
            warm_started,
            refactorizations: self.refactorizations,
            eta_nnz_peak: self.factor.eta_nnz_peak() as u64,
            snapshot: Some(BasisSnapshot {
                basis: self.basis,
                status: self.status,
            }),
        })
    }

    /// Entering direction of nonbasic column `j` with reduced cost `d`,
    /// or `None` when the column cannot improve the objective. Fixed
    /// columns (`ub == lb`) never enter.
    #[inline]
    fn entering_dir(&self, j: usize, d: f64) -> Option<f64> {
        if self.ub[j] - self.lb[j] <= 0.0 {
            return None;
        }
        let tol = self.opts.opt_tol;
        match self.status[j] {
            VarStatus::Lower => (d < -tol).then_some(1.0),
            VarStatus::Upper => (d > tol).then_some(-1.0),
            VarStatus::Free => (d.abs() > tol).then_some(if d < 0.0 { 1.0 } else { -1.0 }),
            VarStatus::Basic(_) => None,
        }
    }

    /// Pick the entering column under the configured [`PricingRule`].
    /// Returns `(column, direction)` or `None` when no column can
    /// improve — which, for every rule, is only claimed after a scan of
    /// *all* columns, so declaring `Optimal` on `None` is always sound.
    ///
    /// Bland's anti-cycling mode overrides the configured rule: it needs
    /// the lowest eligible index, which only a full scan can provide.
    fn price(&mut self, costs: &[f64], bland: bool) -> Option<(usize, f64)> {
        if bland {
            return self.price_full(costs, true);
        }
        match self.opts.pricing {
            PricingRule::Partial => self.price_partial(costs),
            PricingRule::Dantzig | PricingRule::Devex => self.price_full(costs, false),
        }
    }

    /// Full scan over all columns. Dantzig scores by `|d|`; devex by
    /// `d²/w` against the reference weights; Bland returns the first
    /// eligible index outright.
    fn price_full(&mut self, costs: &[f64], bland: bool) -> Option<(usize, f64)> {
        let devex = !bland && self.opts.pricing == PricingRule::Devex;
        if devex && self.devex_w.len() < self.n_total {
            self.devex_w.resize(self.n_total, 1.0);
        }
        let mut best: Option<(usize, f64)> = None;
        let mut best_score = 0.0_f64;
        for j in 0..self.n_total {
            if matches!(self.status[j], VarStatus::Basic(_)) {
                continue;
            }
            let d = self.reduced_cost(j, costs[j]);
            let Some(dir) = self.entering_dir(j, d) else {
                continue;
            };
            if bland {
                return Some((j, dir));
            }
            let score = if devex { d * d / self.devex_w[j] } else { d.abs() };
            if best.is_none() || score > best_score {
                best_score = score;
                best = Some((j, dir));
            }
        }
        best
    }

    /// Candidate-list partial pricing: score a rotating window of
    /// columns starting at the persistent cursor, extending the scan a
    /// window at a time while the list runs dry. Only after a full
    /// wraparound with no candidate does it return `None` — the
    /// full-scan fallback that makes the optimality claim sound.
    fn price_partial(&mut self, costs: &[f64]) -> Option<(usize, f64)> {
        let n = self.n_total;
        if n == 0 {
            return None;
        }
        let window = (n / 8).clamp(16, 256).min(n);
        let start = self.pricing_cursor % n;
        let mut best: Option<(usize, f64)> = None;
        let mut best_score = 0.0_f64;
        let mut examined = 0usize;
        while examined < n {
            let j = (start + examined) % n;
            examined += 1;
            if !matches!(self.status[j], VarStatus::Basic(_)) {
                let d = self.reduced_cost(j, costs[j]);
                if let Some(dir) = self.entering_dir(j, d) {
                    let score = d.abs();
                    if best.is_none() || score > best_score {
                        best_score = score;
                        best = Some((j, dir));
                    }
                }
            }
            // Stop at the end of the first window batch that produced a
            // candidate; an empty batch keeps the scan extending.
            if best.is_some() && examined.is_multiple_of(window) {
                break;
            }
        }
        if best.is_some() {
            // Rotate: the next call resumes where this scan stopped.
            self.pricing_cursor = (start + examined) % n;
        }
        best
    }

    /// Core pivoting loop minimizing `costs`. Returns `Optimal` (no
    /// improving column) or `Unbounded`.
    fn optimize(
        &mut self,
        costs: &[f64],
        max_iters: usize,
        phase: Phase,
    ) -> Result<LpStatus, IlpError> {
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        loop {
            if self.iterations >= max_iters {
                return Err(IlpError::IterationLimit);
            }
            if self.iterations.is_multiple_of(32) {
                if let Some(dl) = self.opts.deadline {
                    if std::time::Instant::now() >= dl {
                        return Err(IlpError::Deadline);
                    }
                }
                if self.opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                    return Err(IlpError::Cancelled);
                }
            }
            // BTRAN: y = B⁻ᵀ c_B.
            for (i, &b) in self.basis.iter().enumerate() {
                self.y[i] = costs[b as usize];
            }
            self.factor.btran(&mut self.y);

            // Pricing: pick entering column.
            let Some((entering, dir)) = self.price(costs, bland) else {
                return Ok(LpStatus::Optimal); // no improving column
            };
            self.compute_w(entering);

            // Ratio test.
            let span = self.ub[entering] - self.lb[entering];
            let mut t_min = if span.is_finite() { span } else { INF };
            let mut leave_row: Option<usize> = None;
            let mut leave_to_upper = false;
            let mut best_pivot = 0.0_f64;
            for i in 0..self.m {
                let wi = self.w[i];
                if wi.abs() <= self.opts.pivot_tol {
                    continue;
                }
                let bj = self.basis[i] as usize;
                let xb = self.x[bj];
                // x_B[i] moves at rate -dir*wi per unit of t.
                let rate = -dir * wi;
                let (limit, to_upper) = if rate < 0.0 {
                    if self.lb[bj].is_finite() {
                        (((xb - self.lb[bj]).max(0.0)) / (-rate), false)
                    } else {
                        continue;
                    }
                } else if self.ub[bj].is_finite() {
                    (((self.ub[bj] - xb).max(0.0)) / rate, true)
                } else {
                    continue;
                };
                let better = if bland {
                    limit < t_min - 1e-12
                        || (limit <= t_min + 1e-12
                            && leave_row.is_none_or(|r| bj < self.basis[r] as usize))
                } else {
                    limit < t_min - 1e-12
                        || (limit <= t_min + 1e-12 && wi.abs() > best_pivot)
                };
                if better {
                    t_min = limit.min(t_min);
                    leave_row = Some(i);
                    leave_to_upper = to_upper;
                    best_pivot = wi.abs();
                }
            }

            if t_min.is_infinite() {
                return match phase {
                    Phase::One => Err(IlpError::Numerical(
                        "unbounded phase-1 subproblem".into(),
                    )),
                    Phase::Two => Ok(LpStatus::Unbounded),
                };
            }

            self.iterations += 1;
            let t = t_min.max(0.0);

            // Move entering variable and update basics.
            let new_xe = self.x[entering] + dir * t;
            if t > 0.0 {
                for i in 0..self.m {
                    let bj = self.basis[i] as usize;
                    self.x[bj] -= dir * t * self.w[i];
                }
            }
            self.x[entering] = new_xe;

            let bound_flip = match leave_row {
                None => true,
                Some(_) if span.is_finite() && t >= span - 1e-12 => {
                    // The entering variable reached its opposite bound at
                    // (numerically) the same step: prefer the flip, it keeps
                    // the basis unchanged.
                    true
                }
                Some(_) => false,
            };

            if bound_flip {
                self.status[entering] = if dir > 0.0 {
                    VarStatus::Upper
                } else {
                    VarStatus::Lower
                };
                // Snap exactly onto the bound.
                self.x[entering] = if dir > 0.0 {
                    self.ub[entering]
                } else {
                    self.lb[entering]
                };
            } else {
                let r = leave_row.expect("pivot row exists when not flipping");
                let leaving = self.basis[r] as usize;
                self.status[leaving] = if leave_to_upper {
                    self.x[leaving] = self.ub[leaving];
                    VarStatus::Upper
                } else {
                    self.x[leaving] = self.lb[leaving];
                    VarStatus::Lower
                };
                self.status[entering] = VarStatus::Basic(r as u32);
                self.basis[r] = entering as u32;
                self.absorb_pivot(r, leaving)?;
            }

            // Stall / cycling detection.
            let obj: f64 = self
                .basis
                .iter()
                .map(|&b| costs[b as usize] * self.x[b as usize])
                .sum::<f64>()
                + (0..self.n_total)
                    .filter(|&j| !matches!(self.status[j], VarStatus::Basic(_)))
                    .map(|j| costs[j] * self.x[j])
                    .sum::<f64>();
            if obj < last_obj - 1e-12 {
                last_obj = obj;
                stall = 0;
                bland = false;
            } else {
                stall += 1;
                if stall >= self.opts.stall_limit {
                    bland = true;
                }
            }
        }
    }
}

enum ColRef<'core> {
    Struct(&'core [u32], &'core [f64]),
    Unit(u32, f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin, Model, Objective, Sense};

    fn solve(model: &Model) -> LpSolution {
        let core = LpCore::from_model(model);
        solve_lp_default(&core, &SimplexOptions::default()).unwrap()
    }

    fn solve_with(model: &Model, basis: BasisBackend) -> LpSolution {
        let core = LpCore::from_model(model);
        let opts = SimplexOptions { basis, ..SimplexOptions::default() };
        solve_lp_default(&core, &opts).unwrap()
    }

    #[test]
    fn simple_2d_lp() {
        // max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 : classic, opt=36 at (2,6)
        let mut m = Model::new();
        let x = m.add_continuous(0.0, INF, 3.0).unwrap();
        let y = m.add_continuous(0.0, INF, 5.0).unwrap();
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Le, 4.0).unwrap();
        m.add_constraint(lin(&[(y, 2.0)]), Sense::Le, 12.0).unwrap();
        m.add_constraint(lin(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0)
            .unwrap();
        for basis in [BasisBackend::Dense, BasisBackend::SparseLu] {
            let s = solve_with(&m, basis);
            assert_eq!(s.status, LpStatus::Optimal);
            assert!((s.objective - 36.0).abs() < 1e-6, "obj={}", s.objective);
            assert!((s.x[0] - 2.0).abs() < 1e-6);
            assert!((s.x[1] - 6.0).abs() < 1e-6);
        }
    }

    #[test]
    fn equality_constraints() {
        // min x + y st x + y = 10, x - y = 4 -> (7,3), obj 10
        let mut m = Model::new();
        let x = m.add_continuous(0.0, INF, 1.0).unwrap();
        let y = m.add_continuous(0.0, INF, 1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Eq, 10.0)
            .unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, -1.0)]), Sense::Eq, 4.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.x[0] - 7.0).abs() < 1e-6);
        assert!((s.x[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Ge, 5.0).unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, INF, -1.0).unwrap();
        let y = m.add_continuous(0.0, INF, 0.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, -1.0)]), Sense::Le, 3.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        // max x + y with x<=2.5, y<=1.5 via variable bounds, one row.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 2.5, 1.0).unwrap();
        let y = m.add_continuous(0.0, 1.5, 1.0).unwrap();
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Le, 100.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x st x >= -5 (bound), x >= -3 (row) -> x = -3
        let mut m = Model::new();
        let x = m.add_continuous(-5.0, INF, 1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Ge, -3.0).unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] + 3.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable() {
        // min y st y >= x - 4, y >= -x + 2, x free -> min at x=3, y=-1
        let mut m = Model::new();
        let x = m.add_continuous(-INF, INF, 0.0).unwrap();
        let y = m.add_continuous(-INF, INF, 1.0).unwrap();
        m.add_constraint(lin(&[(y, 1.0), (x, -1.0)]), Sense::Ge, -4.0)
            .unwrap();
        m.add_constraint(lin(&[(y, 1.0), (x, 1.0)]), Sense::Ge, 2.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 1.0).abs() < 1e-6, "obj={}", s.objective);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the optimum.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, INF, -1.0).unwrap();
        let y = m.add_continuous(0.0, INF, -1.0).unwrap();
        for k in 1..8 {
            let kf = k as f64;
            m.add_constraint(lin(&[(x, kf), (y, kf)]), Sense::Le, 2.0 * kf)
                .unwrap();
        }
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variables_stay_fixed() {
        let mut m = Model::new();
        let x = m.add_continuous(2.0, 2.0, -10.0).unwrap();
        let y = m.add_continuous(0.0, 5.0, -1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Le, 4.0)
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn bound_override_changes_solution() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, -1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Le, 100.0).unwrap();
        let core = LpCore::from_model(&m);
        let s = solve_lp(&core, &[0.0], &[3.0], &SimplexOptions::default()).unwrap();
        assert!((s.x[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn backends_agree_on_equalities_and_ranges() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 4.0, 2.0).unwrap();
        let y = m.add_continuous(-2.0, 6.0, -3.0).unwrap();
        let z = m.add_continuous(0.0, INF, 1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 2.0), (z, -1.0)]), Sense::Eq, 3.0)
            .unwrap();
        m.add_constraint(lin(&[(x, 2.0), (y, -1.0)]), Sense::Ge, -4.0)
            .unwrap();
        m.add_constraint(lin(&[(y, 1.0), (z, 3.0)]), Sense::Le, 12.0)
            .unwrap();
        let dense = solve_with(&m, BasisBackend::Dense);
        let lu = solve_with(&m, BasisBackend::SparseLu);
        assert_eq!(dense.status, LpStatus::Optimal);
        assert_eq!(lu.status, LpStatus::Optimal);
        assert!(
            (dense.objective - lu.objective).abs() < 1e-6,
            "dense {} vs lu {}",
            dense.objective,
            lu.objective
        );
    }

    #[test]
    fn warm_start_skips_phase_one_after_bound_tightening() {
        // Root LP, then re-solve with one tightened bound (a branching
        // step): the warm solve must match a cold solve and report that
        // phase 1 was skipped.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, -3.0).unwrap();
        let y = m.add_continuous(0.0, 10.0, -2.0).unwrap();
        let z = m.add_continuous(0.0, 10.0, -4.0).unwrap();
        m.add_constraint(lin(&[(x, 2.0), (y, 1.0), (z, 3.0)]), Sense::Le, 14.0)
            .unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 3.0), (z, 1.0)]), Sense::Le, 12.0)
            .unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0), (z, 1.0)]), Sense::Ge, 1.0)
            .unwrap();
        let core = LpCore::from_model(&m);
        let opts = SimplexOptions::default();
        let root = solve_lp_default(&core, &opts).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        let warm = root.snapshot.as_ref().unwrap().warm_start().unwrap();

        // Tighten each variable's upper bound below its root value in turn.
        for v in 0..3 {
            let mut ub = core.ub.clone();
            let tightened = (root.x[v] - 0.75).max(0.0);
            ub[v] = tightened;
            let cold = solve_lp(&core, &core.lb, &ub, &opts).unwrap();
            let hot = solve_lp_warm(&core, &core.lb, &ub, &opts, Some(&warm)).unwrap();
            assert_eq!(cold.status, hot.status, "var {v}");
            if cold.status == LpStatus::Optimal {
                assert!(
                    (cold.objective - hot.objective).abs() < 1e-6,
                    "var {v}: cold {} vs warm {}",
                    cold.objective,
                    hot.objective
                );
                assert!(hot.warm_started, "var {v}: warm start must be accepted");
                assert!(
                    hot.iterations <= cold.iterations + 2,
                    "var {v}: warm start may not pivot more than cold ({} vs {})",
                    hot.iterations,
                    cold.iterations
                );
            }
        }
    }

    #[test]
    fn warm_start_detects_infeasible_child_via_fallback() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, -1.0).unwrap();
        let y = m.add_continuous(0.0, 10.0, -1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Ge, 5.0)
            .unwrap();
        let core = LpCore::from_model(&m);
        let opts = SimplexOptions::default();
        let root = solve_lp_default(&core, &opts).unwrap();
        let warm = root.snapshot.as_ref().unwrap().warm_start().unwrap();
        // Child bounds make the row unsatisfiable.
        let hot =
            solve_lp_warm(&core, &[0.0, 0.0], &[2.0, 2.0], &opts, Some(&warm)).unwrap();
        assert_eq!(hot.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_across_backends() {
        // A dense-backend snapshot warm-starts an LU-backend solve and
        // vice versa: the warm basis is backend-independent.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 8.0, -5.0).unwrap();
        let y = m.add_continuous(0.0, 8.0, -4.0).unwrap();
        m.add_constraint(lin(&[(x, 6.0), (y, 4.0)]), Sense::Le, 24.0)
            .unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 2.0)]), Sense::Le, 6.0)
            .unwrap();
        let core = LpCore::from_model(&m);
        for (first, second) in [
            (BasisBackend::Dense, BasisBackend::SparseLu),
            (BasisBackend::SparseLu, BasisBackend::Dense),
        ] {
            let o1 = SimplexOptions { basis: first, ..SimplexOptions::default() };
            let o2 = SimplexOptions { basis: second, ..SimplexOptions::default() };
            let root = solve_lp_default(&core, &o1).unwrap();
            let warm = root.snapshot.as_ref().unwrap().warm_start().unwrap();
            let mut ub = core.ub.clone();
            ub[0] = (root.x[0] - 0.5).max(0.0);
            let cold = solve_lp(&core, &core.lb, &ub, &o2).unwrap();
            let hot = solve_lp_warm(&core, &core.lb, &ub, &o2, Some(&warm)).unwrap();
            assert_eq!(cold.status, LpStatus::Optimal);
            assert!((cold.objective - hot.objective).abs() < 1e-6);
        }
    }

    #[test]
    fn degenerate_equality_slack_classifies_lower() {
        // An equality row's slack is fixed (`l == u`): when the start
        // residual cannot be absorbed, the nonbasic classification must
        // deterministically be `Lower` — decided by the bound-selection
        // branch, never by a float equality on the clamped value.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Eq, 5.0).unwrap();
        let core = LpCore::from_model(&m);
        let mut s =
            Solver::new(&core, &core.lb, &core.ub, SimplexOptions::default()).unwrap();
        s.initialize().unwrap();
        let slack = core.num_structural();
        assert_eq!(s.lb[slack], s.ub[slack], "equality slack must be fixed");
        assert_eq!(s.status[slack], VarStatus::Lower);
        assert_eq!(s.artificials.len(), 1, "unabsorbed residual needs an artificial");
        // The full solve still lands exactly on the equality.
        let sol = solve(&m);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.x[0] - 5.0).abs() < 1e-9);
    }

    fn solve_pricing(m: &Model, pricing: PricingRule) -> LpSolution {
        let core = LpCore::from_model(m);
        let opts = SimplexOptions { pricing, ..SimplexOptions::default() };
        solve_lp_default(&core, &opts).unwrap()
    }

    #[test]
    fn pricing_rules_agree_on_optimum() {
        // All rules change only which improving column enters first, so
        // every rule must land on the same optimal objective.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 4.0, 2.0).unwrap();
        let y = m.add_continuous(-2.0, 6.0, -3.0).unwrap();
        let z = m.add_continuous(0.0, INF, 1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 2.0), (z, -1.0)]), Sense::Eq, 3.0)
            .unwrap();
        m.add_constraint(lin(&[(x, 2.0), (y, -1.0)]), Sense::Ge, -4.0)
            .unwrap();
        m.add_constraint(lin(&[(y, 1.0), (z, 3.0)]), Sense::Le, 12.0)
            .unwrap();
        let baseline = solve_pricing(&m, PricingRule::Dantzig);
        assert_eq!(baseline.status, LpStatus::Optimal);
        for rule in [PricingRule::Partial, PricingRule::Devex] {
            let s = solve_pricing(&m, rule);
            assert_eq!(s.status, LpStatus::Optimal, "{rule}");
            assert!(
                (s.objective - baseline.objective).abs() < 1e-6,
                "{rule}: {} vs dantzig {}",
                s.objective,
                baseline.objective
            );
        }
    }

    #[test]
    fn partial_pricing_never_declares_optimality_from_a_dry_window() {
        // A problem far smaller than the minimum window still exercises
        // the wraparound path: partial pricing must only report Optimal
        // after a full scan, so the optimum must match Dantzig exactly.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, INF, 3.0).unwrap();
        let y = m.add_continuous(0.0, INF, 5.0).unwrap();
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Le, 4.0).unwrap();
        m.add_constraint(lin(&[(y, 2.0)]), Sense::Le, 12.0).unwrap();
        m.add_constraint(lin(&[(x, 3.0), (y, 2.0)]), Sense::Le, 18.0)
            .unwrap();
        let s = solve_pricing(&m, PricingRule::Partial);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 36.0).abs() < 1e-6, "obj={}", s.objective);
    }

    #[test]
    fn refactorization_counters_are_reported() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, INF, -1.0).unwrap();
        let y = m.add_continuous(0.0, INF, -1.0).unwrap();
        for k in 1..8 {
            let kf = k as f64;
            m.add_constraint(lin(&[(x, kf), (y, kf / 2.0)]), Sense::Le, 2.0 * kf)
                .unwrap();
        }
        let core = LpCore::from_model(&m);
        // Every solve performs at least the initial factorization.
        let s = solve_lp_default(&core, &SimplexOptions::default()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.refactorizations >= 1, "initial factorization must count");
        // A refactor cadence of one forces a rebuild per pivot, and the
        // LU backend must report nonzero eta fill-in once any pivot has
        // been absorbed into the product file.
        let tight = SimplexOptions {
            basis: BasisBackend::SparseLu,
            refactor_every: 1,
            ..SimplexOptions::default()
        };
        let t = solve_lp_default(&core, &tight).unwrap();
        assert_eq!(t.status, LpStatus::Optimal);
        assert!(
            t.refactorizations > s.refactorizations,
            "per-pivot cadence must refactor more often ({} vs {})",
            t.refactorizations,
            s.refactorizations
        );
        if t.iterations > 0 {
            assert!(t.eta_nnz_peak > 0, "absorbed pivots must leave a fill-in peak");
        }
    }
}
