//! Conversion of a [`Model`] into the column-oriented
//! form consumed by the simplex engine.
//!
//! The [`LpCore`] is built **once** per model and shared by every node of a
//! branch-and-bound tree; per-node variable bounds are passed separately so
//! that re-solving with changed bounds costs no matrix rebuild.

use crate::linalg::CscMatrix;
use crate::model::{Model, Sense};

/// Immutable column-form snapshot of a model's linear part.
#[derive(Debug, Clone)]
pub struct LpCore {
    /// Constraint matrix over structural variables, `m x n` CSC.
    pub a: CscMatrix,
    /// Structural objective, always in **minimization** sense.
    pub costs: Vec<f64>,
    /// Row senses.
    pub senses: Vec<Sense>,
    /// Row right-hand sides.
    pub rhs: Vec<f64>,
    /// Default structural bounds from the model.
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// True when the original model maximizes (the reported objective is
    /// negated back).
    pub maximize: bool,
    /// Constant added to the reported objective.
    pub obj_offset: f64,
}

impl LpCore {
    /// Extract the LP relaxation of `model` (integrality dropped).
    pub fn from_model(model: &Model) -> Self {
        let n = model.num_vars();
        let m = model.num_constraints();
        let sign = if model.maximize { -1.0 } else { 1.0 };
        let mut columns: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut senses = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        for (ri, con) in model.cons.iter().enumerate() {
            senses.push(con.sense);
            rhs.push(con.rhs);
            for &(v, c) in &con.terms {
                columns[v.index()].push((ri as u32, c));
            }
        }
        LpCore {
            a: CscMatrix::from_columns(m, &columns),
            costs: model.vars.iter().map(|v| sign * v.obj).collect(),
            senses,
            rhs,
            lb: model.vars.iter().map(|v| v.lb).collect(),
            ub: model.vars.iter().map(|v| v.ub).collect(),
            maximize: model.maximize,
            obj_offset: model.obj_offset,
        }
    }

    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    #[inline]
    pub fn num_structural(&self) -> usize {
        self.costs.len()
    }

    /// Convert an internal minimization objective value back to the user's
    /// optimization sense, including the offset.
    #[inline]
    pub fn user_objective(&self, internal: f64) -> f64 {
        let signed = if self.maximize { -internal } else { internal };
        signed + self.obj_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin, Model, Objective, Sense};

    #[test]
    fn extraction_negates_for_maximize() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 5.0, 2.0).unwrap();
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 3.0)]), Sense::Le, 9.0).unwrap();
        let core = LpCore::from_model(&m);
        assert_eq!(core.costs, vec![-2.0]);
        assert_eq!(core.a.get(0, 0), 3.0);
        assert_eq!(core.user_objective(-6.0), 6.0);
    }
}
