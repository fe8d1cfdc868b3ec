//! Model-building API: variables, linear constraints, objective.
//!
//! A [`Model`] is solver-agnostic: the LP engine consumes its relaxation and
//! the branch-and-bound engine enforces the integrality marks. Variables are
//! referenced by the opaque [`VarId`] handle returned at creation.

use crate::error::IlpError;
use serde::{Deserialize, Serialize};

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// Raw column index of the variable in the model.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Domain class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Shorthand for an integer variable with bounds `[0, 1]`.
    Binary,
}

/// Comparison sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr == rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    Minimize,
    Maximize,
}

/// A linear expression `sum coeff_i * var_i`, kept sparse and unsorted until
/// it is ingested into a constraint.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinExpr {
    pub(crate) terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `coeff * var` to the expression (builder style).
    pub fn add(mut self, var: VarId, coeff: f64) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// In-place version of [`LinExpr::add`].
    pub fn push(&mut self, var: VarId, coeff: f64) {
        self.terms.push((var, coeff));
    }

    /// Iterate raw (possibly duplicated) terms.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Number of raw terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluate against a point.
    pub fn value(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|&(v, c)| c * x[v.index()]).sum()
    }

    /// Merge duplicate variables, dropping exact zeros, sorted by column.
    pub fn normalized(&self) -> Vec<(VarId, f64)> {
        let mut t = self.terms.clone();
        t.sort_unstable_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(t.len());
        for (v, c) in t {
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        out
    }
}

/// Convenience macro-free constructor: `lin(&[(x, 1.0), (y, -2.0)])`.
pub fn lin(terms: &[(VarId, f64)]) -> LinExpr {
    LinExpr {
        terms: terms.to_vec(),
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct VarData {
    pub lb: f64,
    pub ub: f64,
    pub kind: VarKind,
    pub obj: f64,
    pub name: Option<String>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ConData {
    pub terms: Vec<(VarId, f64)>,
    pub sense: Sense,
    pub rhs: f64,
    pub name: Option<String>,
}

/// A mixed-integer linear program.
///
/// Build by adding variables (which fixes their objective coefficient)
/// and constraints over the returned [`VarId`] handles, then hand the
/// model to [`crate::branch::solve_mip`] (or
/// [`crate::simplex`] for the relaxation alone):
///
/// ```
/// use gmm_ilp::model::{lin, Model, Objective, Sense};
///
/// // maximize x + 2y  s.t.  x + y <= 1,  x,y binary
/// let mut m = Model::new();
/// let x = m.add_binary(1.0);
/// let y = m.add_binary(2.0);
/// m.set_objective_direction(Objective::Maximize);
/// m.add_constraint(lin(&[(x, 1.0), (y, 1.0)]), Sense::Le, 1.0).unwrap();
///
/// let result = gmm_ilp::branch::solve_mip(&m, &Default::default()).unwrap();
/// let sol = result.best_solution.unwrap();
/// assert_eq!(result.best_objective, Some(2.0)); // y wins the knapsack
/// assert_eq!((sol[x.index()], sol[y.index()]), (0.0, 1.0));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Model {
    pub(crate) vars: Vec<VarData>,
    pub(crate) cons: Vec<ConData>,
    pub(crate) maximize: bool,
    pub(crate) obj_offset: f64,
}

impl Model {
    /// Empty minimization model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the optimization direction (default: minimize).
    pub fn set_objective_direction(&mut self, dir: Objective) {
        self.maximize = matches!(dir, Objective::Maximize);
    }

    /// Direction currently configured.
    pub fn objective_direction(&self) -> Objective {
        if self.maximize {
            Objective::Maximize
        } else {
            Objective::Minimize
        }
    }

    /// Constant added to the reported objective value.
    pub fn set_objective_offset(&mut self, off: f64) {
        self.obj_offset = off;
    }

    /// Add a variable. `Binary` kind overrides the supplied bounds with
    /// `[0, 1]` intersected with them.
    pub fn add_var(
        &mut self,
        kind: VarKind,
        mut lb: f64,
        mut ub: f64,
        obj: f64,
    ) -> Result<VarId, IlpError> {
        if lb.is_nan() || ub.is_nan() || obj.is_nan() || obj.is_infinite() {
            return Err(IlpError::NonFinite("variable bounds/objective"));
        }
        if matches!(kind, VarKind::Binary) {
            lb = lb.max(0.0);
            ub = ub.min(1.0);
        }
        if lb > ub {
            return Err(IlpError::EmptyBound {
                var: self.vars.len(),
                lb,
                ub,
            });
        }
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarData {
            lb,
            ub,
            kind,
            obj,
            name: None,
        });
        Ok(id)
    }

    /// Shorthand: binary variable with objective coefficient.
    pub fn add_binary(&mut self, obj: f64) -> VarId {
        self.add_var(VarKind::Binary, 0.0, 1.0, obj)
            .expect("binary bounds are always valid")
    }

    /// Shorthand: continuous variable.
    pub fn add_continuous(&mut self, lb: f64, ub: f64, obj: f64) -> Result<VarId, IlpError> {
        self.add_var(VarKind::Continuous, lb, ub, obj)
    }

    /// Shorthand: general integer variable.
    pub fn add_integer(&mut self, lb: f64, ub: f64, obj: f64) -> Result<VarId, IlpError> {
        self.add_var(VarKind::Integer, lb, ub, obj)
    }

    /// Attach a display name to a variable (diagnostics only).
    pub fn set_var_name(&mut self, var: VarId, name: impl Into<String>) {
        self.vars[var.index()].name = Some(name.into());
    }

    /// Display name of a variable if one was set.
    pub fn var_name(&self, var: VarId) -> Option<&str> {
        self.vars[var.index()].name.as_deref()
    }

    /// Add a linear constraint `expr (sense) rhs`.
    pub fn add_constraint(
        &mut self,
        expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) -> Result<usize, IlpError> {
        if rhs.is_nan() {
            return Err(IlpError::NonFinite("constraint rhs"));
        }
        for &(v, c) in &expr.terms {
            if v.index() >= self.vars.len() {
                return Err(IlpError::BadVariable(v.index()));
            }
            if !c.is_finite() {
                return Err(IlpError::NonFinite("constraint coefficient"));
            }
        }
        let id = self.cons.len();
        self.cons.push(ConData {
            terms: expr.normalized(),
            sense,
            rhs,
            name: None,
        });
        Ok(id)
    }

    /// Attach a display name to a constraint (diagnostics only).
    pub fn set_constraint_name(&mut self, con: usize, name: impl Into<String>) {
        self.cons[con].name = Some(name.into());
    }

    /// Update a variable's objective coefficient.
    pub fn set_obj_coeff(&mut self, var: VarId, obj: f64) {
        self.vars[var.index()].obj = obj;
    }

    /// Tighten a variable's bounds (intersection with current bounds).
    pub fn tighten_bounds(&mut self, var: VarId, lb: f64, ub: f64) -> Result<(), IlpError> {
        let v = &mut self.vars[var.index()];
        let nlb = v.lb.max(lb);
        let nub = v.ub.min(ub);
        if nlb > nub {
            return Err(IlpError::EmptyBound {
                var: var.index(),
                lb: nlb,
                ub: nub,
            });
        }
        v.lb = nlb;
        v.ub = nub;
        Ok(())
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// Indices of integer/binary variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !matches!(v.kind, VarKind::Continuous))
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }

    pub fn var_bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.vars[var.index()];
        (v.lb, v.ub)
    }

    pub fn var_kind(&self, var: VarId) -> VarKind {
        self.vars[var.index()].kind
    }

    pub fn obj_coeff(&self, var: VarId) -> f64 {
        self.vars[var.index()].obj
    }

    /// Objective value (including offset and direction) of a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        let raw: f64 = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| v.obj * x[i])
            .sum();
        raw + self.obj_offset
    }

    /// Check a point against all constraints, bounds, and integrality
    /// within tolerance `tol`. Returns the first violation description.
    pub fn check_feasible(&self, x: &[f64], tol: f64) -> Result<(), String> {
        if x.len() != self.vars.len() {
            return Err(format!(
                "point has {} entries, model has {} variables",
                x.len(),
                self.vars.len()
            ));
        }
        for (i, v) in self.vars.iter().enumerate() {
            if x[i] < v.lb - tol || x[i] > v.ub + tol {
                return Err(format!(
                    "variable {} = {} outside bounds [{}, {}]",
                    i, x[i], v.lb, v.ub
                ));
            }
            if !matches!(v.kind, VarKind::Continuous) && (x[i] - x[i].round()).abs() > tol {
                return Err(format!("variable {} = {} not integral", i, x[i]));
            }
        }
        for (ci, con) in self.cons.iter().enumerate() {
            let lhs: f64 = con.terms.iter().map(|&(v, c)| c * x[v.index()]).sum();
            let ok = match con.sense {
                Sense::Le => lhs <= con.rhs + tol,
                Sense::Ge => lhs >= con.rhs - tol,
                Sense::Eq => (lhs - con.rhs).abs() <= tol,
            };
            if !ok {
                let name = con.name.as_deref().unwrap_or("<unnamed>");
                return Err(format!(
                    "constraint {ci} ({name}): lhs {lhs} violates {:?} {}",
                    con.sense, con.rhs
                ));
            }
        }
        Ok(())
    }

    /// Total number of nonzero constraint coefficients.
    pub fn nnz(&self) -> usize {
        self.cons.iter().map(|c| c.terms.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_model() {
        let mut m = Model::new();
        let x = m.add_binary(3.0);
        let y = m.add_continuous(0.0, 10.0, 1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0), (y, 2.0)]), Sense::Le, 8.0)
            .unwrap();
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.integer_vars(), vec![x]);
        assert_eq!(m.objective_value(&[1.0, 2.0]), 5.0);
    }

    #[test]
    fn binary_bounds_clamped() {
        let mut m = Model::new();
        let x = m.add_var(VarKind::Binary, -5.0, 9.0, 0.0).unwrap();
        assert_eq!(m.var_bounds(x), (0.0, 1.0));
    }

    #[test]
    fn empty_bound_rejected() {
        let mut m = Model::new();
        let err = m.add_var(VarKind::Continuous, 2.0, 1.0, 0.0);
        assert!(matches!(err, Err(IlpError::EmptyBound { .. })));
    }

    #[test]
    fn constraint_bad_var_rejected() {
        let mut m = Model::new();
        let mut other = Model::new();
        let _ = m.add_binary(0.0);
        let foreign = other.add_binary(0.0);
        let _ = other.add_binary(0.0);
        let bad = VarId(5);
        assert!(m
            .add_constraint(lin(&[(bad, 1.0)]), Sense::Le, 1.0)
            .is_err());
        // Index 0 happens to exist in `m`, so a foreign id of 0 is accepted;
        // ids are plain indices by design.
        assert!(m
            .add_constraint(lin(&[(foreign, 1.0)]), Sense::Le, 1.0)
            .is_ok());
    }

    #[test]
    fn normalization_merges_terms() {
        let mut m = Model::new();
        let x = m.add_binary(0.0);
        let e = LinExpr::new().add(x, 1.0).add(x, 2.0);
        assert_eq!(e.normalized(), vec![(x, 3.0)]);
        let cancel = LinExpr::new().add(x, 1.0).add(x, -1.0);
        assert!(cancel.normalized().is_empty());
    }

    #[test]
    fn feasibility_check_reports_violations() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Ge, 1.0).unwrap();
        assert!(m.check_feasible(&[1.0], 1e-9).is_ok());
        assert!(m.check_feasible(&[0.0], 1e-9).is_err());
        assert!(m.check_feasible(&[0.5], 1e-9).is_err()); // not integral
    }

    #[test]
    fn tighten_bounds_intersects() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 0.0).unwrap();
        m.tighten_bounds(x, 2.0, 20.0).unwrap();
        assert_eq!(m.var_bounds(x), (2.0, 10.0));
        assert!(m.tighten_bounds(x, 11.0, 12.0).is_err());
    }
}
