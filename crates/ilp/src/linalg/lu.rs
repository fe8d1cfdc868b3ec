//! Pluggable basis factorizations for the revised simplex engine.
//!
//! The simplex engine never forms `B⁻¹` explicitly; it only needs to solve
//! the two linear systems behind every pivot:
//!
//! * **FTRAN** — `B w = aⱼ` (entering-column image for the ratio test),
//! * **BTRAN** — `Bᵀ y = c_B` (simplex multipliers for pricing).
//!
//! [`BasisFactorization`] abstracts those solves plus the per-pivot
//! product-form update. Two backends implement it:
//!
//! * [`DenseInverse`] — the original explicit dense inverse, rank-1
//!   updated in place. O(m²) per solve and per update regardless of
//!   sparsity; kept as a reference/fallback and for very dense bases.
//! * [`SparseLu`] — sparse LU with Markowitz-style pivoting (threshold
//!   partial pivoting that prefers structurally sparse rows, columns
//!   processed sparsest-first) and a product-form [`EtaFile`] replayed on
//!   top of the factors between refactorizations. Work per solve is
//!   proportional to factor + eta nonzeros, which is what makes large
//!   mostly-slack bases from branch-and-bound nodes cheap.
//!
//! [`Factorizer`] is the enum dispatcher the solver embeds (it keeps
//! `LpSolution` clonable without boxed trait objects).

use super::eta::{Eta, EtaFile};
use super::DenseMatrix;

/// The basis matrix was numerically singular at the requested tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularBasis;

impl std::fmt::Display for SingularBasis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("singular basis matrix")
    }
}

/// Which [`BasisFactorization`] backend the simplex engine should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BasisBackend {
    /// Explicit dense inverse (reference backend).
    Dense,
    /// Sparse LU + product-form eta updates (default).
    #[default]
    SparseLu,
}

/// Solve and update access to a factorized simplex basis.
///
/// `refactor` rebuilds the factorization from the basis columns (sparse
/// `(row, value)` lists, one per basis position); `update` absorbs one
/// pivot. Solvers call `ftran`/`btran` in place on length-`m` buffers.
///
/// ```
/// use gmm_ilp::linalg::{BasisFactorization, BasisBackend, Factorizer};
///
/// // Factorize B = [[2, 1], [0, 4]] (columns as sparse (row, value) lists)
/// // and solve B x = [4, 8]: x = [1, 2].
/// let cols = vec![vec![(0u32, 2.0)], vec![(0u32, 1.0), (1u32, 4.0)]];
/// let mut f = Factorizer::new(BasisBackend::SparseLu);
/// f.refactor(2, &cols, 1e-9).unwrap();
///
/// let mut x = vec![4.0, 8.0]; // enters holding b, leaves holding x
/// f.ftran(&mut x);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
///
/// // BTRAN solves the transpose system used for pricing.
/// let mut y = vec![2.0, 9.0]; // enters holding c_B
/// f.btran(&mut y);
/// assert!((y[0] - 1.0).abs() < 1e-12 && (y[1] - 2.0).abs() < 1e-12);
/// ```
pub trait BasisFactorization {
    /// Rebuild from scratch. `cols[i]` is the sparse column of the
    /// variable basic in row-position `i`.
    fn refactor(
        &mut self,
        m: usize,
        cols: &[Vec<(u32, f64)>],
        pivot_tol: f64,
    ) -> Result<(), SingularBasis>;

    /// Solve `B x = b` in place (`x` enters holding `b`, leaves holding
    /// the solution indexed by basis position).
    fn ftran(&mut self, x: &mut [f64]);

    /// Solve `Bᵀ y = c` in place (`y` enters holding `c` indexed by basis
    /// position, leaves holding the multipliers indexed by row).
    fn btran(&mut self, y: &mut [f64]);

    /// Absorb a pivot: basis position `r` is replaced by a column whose
    /// FTRAN image is `w` (so `w[r]` is the pivot element).
    fn update(&mut self, r: usize, w: &[f64], pivot_tol: f64) -> Result<(), SingularBasis>;

    /// Nonzeros accumulated in update storage since the last refactor;
    /// the solver refactors early when this grows past its threshold.
    fn update_nnz(&self) -> usize;
}

/// Explicit dense basis inverse (the engine's original strategy).
#[derive(Debug, Clone)]
pub struct DenseInverse {
    binv: DenseMatrix,
    scratch: Vec<f64>,
}

impl DenseInverse {
    pub fn new() -> Self {
        DenseInverse {
            binv: DenseMatrix::identity(0),
            scratch: Vec::new(),
        }
    }
}

impl Default for DenseInverse {
    fn default() -> Self {
        Self::new()
    }
}

impl BasisFactorization for DenseInverse {
    fn refactor(
        &mut self,
        m: usize,
        cols: &[Vec<(u32, f64)>],
        pivot_tol: f64,
    ) -> Result<(), SingularBasis> {
        let mut b = DenseMatrix::zeros(m, m);
        for (col, entries) in cols.iter().enumerate() {
            for &(r, v) in entries {
                b.set(r as usize, col, b.get(r as usize, col) + v);
            }
        }
        self.binv = b.inverse(pivot_tol).ok_or(SingularBasis)?;
        self.scratch.resize(m, 0.0);
        Ok(())
    }

    fn ftran(&mut self, x: &mut [f64]) {
        self.binv.mul_vec(x, &mut self.scratch);
        x.copy_from_slice(&self.scratch);
    }

    fn btran(&mut self, y: &mut [f64]) {
        self.binv.vec_mul(y, &mut self.scratch);
        y.copy_from_slice(&self.scratch);
    }

    fn update(&mut self, r: usize, w: &[f64], pivot_tol: f64) -> Result<(), SingularBasis> {
        let wr = w[r];
        if wr.abs() <= pivot_tol {
            return Err(SingularBasis);
        }
        // Rank-1 row update: row r scaled by 1/wᵣ, every other row i
        // reduced by wᵢ · (new row r).
        let inv_wr = 1.0 / wr;
        super::scale(inv_wr, self.binv.row_mut(r));
        for i in 0..w.len() {
            if i == r {
                continue;
            }
            let wi = w[i];
            if wi == 0.0 {
                continue;
            }
            let (dst, src) = self.binv.two_rows_mut(i, r);
            super::axpy(-wi, src, dst);
        }
        Ok(())
    }

    fn update_nnz(&self) -> usize {
        // The dense inverse folds updates in place: there is no replayed
        // file whose growth could justify an early refactor.
        0
    }
}

/// Sparse LU factorization with product-form updates.
///
/// Factorization is left-looking (Gilbert–Peierls shape, dense scatter
/// accumulator): basis columns are processed sparsest-first, and each
/// step's pivot row is chosen by threshold partial pivoting — among rows
/// within `0.1 × |max|` of the largest eliminated value, the one with the
/// fewest structural nonzeros in the basis wins (a static Markowitz
/// criterion). That keeps fill low on the slack-heavy bases MIP node LPs
/// produce while bounding element growth.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    m: usize,
    /// Pivot row of factor step `k` (original row index).
    pivot_rows: Vec<u32>,
    /// Basis position whose column was eliminated at step `k`.
    col_order: Vec<u32>,
    /// `L` columns per step: `(orig_row, multiplier)`, unit diagonal
    /// implicit, rows strictly "below" in elimination order.
    lower: Vec<Vec<(u32, f64)>>,
    /// `U` columns per step: `(step_j, u_{jk})` for `j < k`.
    upper: Vec<Vec<(u32, f64)>>,
    /// `U` diagonal per step.
    upper_diag: Vec<f64>,
    /// Product-form updates since the last refactor.
    etas: EtaFile,
    /// Dense scratch for factorization and solves.
    work: Vec<f64>,
}

impl SparseLu {
    pub fn new() -> Self {
        SparseLu::default()
    }

    /// Nonzeros in the L and U factors (diagnostics and tests).
    pub fn factor_nnz(&self) -> usize {
        self.lower.iter().map(Vec::len).sum::<usize>()
            + self.upper.iter().map(Vec::len).sum::<usize>()
            + self.upper_diag.len()
    }

    /// Worst eta-file fill-in seen since this factorizer was created
    /// (survives refactorizations, which clear the live file).
    pub fn eta_nnz_peak(&self) -> usize {
        self.etas.peak_nnz()
    }
}

impl BasisFactorization for SparseLu {
    fn refactor(
        &mut self,
        m: usize,
        cols: &[Vec<(u32, f64)>],
        pivot_tol: f64,
    ) -> Result<(), SingularBasis> {
        debug_assert_eq!(cols.len(), m);
        self.m = m;
        self.pivot_rows.clear();
        self.col_order.clear();
        self.lower.clear();
        self.upper.clear();
        self.upper_diag.clear();
        self.etas.clear();
        self.work.clear();
        self.work.resize(m, 0.0);

        // Static Markowitz counts: row occupancy of the basis matrix.
        let mut row_nnz = vec![0u32; m];
        for col in cols {
            for &(r, _) in col {
                row_nnz[r as usize] += 1;
            }
        }
        // Columns sparsest-first (stable, so slack-heavy prefixes keep
        // their natural order and the factorization stays near-diagonal).
        let mut order: Vec<u32> = (0..m as u32).collect();
        order.sort_by_key(|&c| cols[c as usize].len());

        let mut pivoted = vec![false; m];
        // step_of[orig_row] = elimination step that pivoted on that row.
        let mut step_of = vec![u32::MAX; m];

        // Worklist of elimination steps reached by the current column,
        // processed in ascending step order (a min-heap of step indices).
        let mut reach: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            std::collections::BinaryHeap::new();

        for &c in &order {
            let k = self.pivot_rows.len();
            let col = &cols[c as usize];

            // Scatter the column into the dense accumulator (accumulating,
            // in case a caller passes duplicate coordinates); seed the
            // reach worklist with the steps of already-pivoted rows.
            let mut touched: Vec<u32> = Vec::with_capacity(col.len() * 2);
            for &(r, v) in col {
                if self.work[r as usize] == 0.0 {
                    touched.push(r);
                    if pivoted[r as usize] {
                        reach.push(std::cmp::Reverse(step_of[r as usize]));
                    }
                }
                self.work[r as usize] += v;
            }

            // Eliminate with exactly the earlier steps whose pivot row
            // carries a nonzero (the Gilbert–Peierls reach, discovered
            // on the fly). Fill lands only on rows pivoted at *later*
            // steps, so ascending-order processing stays topological and
            // the work is proportional to actual fill, not to k.
            let mut last_step: i64 = -1;
            while let Some(std::cmp::Reverse(j)) = reach.pop() {
                if i64::from(j) <= last_step {
                    continue; // duplicate entry
                }
                last_step = i64::from(j);
                let j = j as usize;
                let xj = self.work[self.pivot_rows[j] as usize];
                if xj == 0.0 {
                    continue; // cancelled out before we got here
                }
                for &(i, lij) in &self.lower[j] {
                    let i = i as usize;
                    if self.work[i] == 0.0 {
                        touched.push(i as u32);
                        if pivoted[i] {
                            reach.push(std::cmp::Reverse(step_of[i]));
                        }
                    }
                    self.work[i] -= lij * xj;
                }
            }

            // Pivot choice: threshold partial pivoting with a static
            // Markowitz (sparsest-row) tie-break.
            let mut vmax = 0.0f64;
            for &i in &touched {
                let i = i as usize;
                if !pivoted[i] {
                    vmax = vmax.max(self.work[i].abs());
                }
            }
            if vmax <= pivot_tol {
                for &i in &touched {
                    self.work[i as usize] = 0.0;
                }
                return Err(SingularBasis);
            }
            let threshold = 0.1 * vmax;
            let mut pivot_row = usize::MAX;
            let mut best_count = u32::MAX;
            let mut best_abs = 0.0f64;
            for &i in &touched {
                let i = i as usize;
                if pivoted[i] {
                    continue;
                }
                let a = self.work[i].abs();
                if a < threshold {
                    continue;
                }
                let better = row_nnz[i] < best_count || (row_nnz[i] == best_count && a > best_abs);
                if better {
                    best_count = row_nnz[i];
                    best_abs = a;
                    pivot_row = i;
                }
            }
            debug_assert_ne!(pivot_row, usize::MAX);
            let pivot_val = self.work[pivot_row];

            // Gather U (pivoted rows) and L (unpivoted rows) parts.
            let mut ucol: Vec<(u32, f64)> = Vec::new();
            let mut lcol: Vec<(u32, f64)> = Vec::new();
            for &i in &touched {
                let i = i as usize;
                let v = self.work[i];
                self.work[i] = 0.0; // reset accumulator for the next column
                if v == 0.0 || i == pivot_row {
                    continue;
                }
                if pivoted[i] {
                    ucol.push((step_of[i], v));
                } else {
                    lcol.push((i as u32, v / pivot_val));
                }
            }
            // Back-substitution peels U columns from the bottom; keep
            // entries sorted by step for cache friendliness.
            ucol.sort_unstable_by_key(|&(j, _)| j);

            pivoted[pivot_row] = true;
            step_of[pivot_row] = k as u32;
            self.pivot_rows.push(pivot_row as u32);
            self.col_order.push(c);
            self.lower.push(lcol);
            self.upper.push(ucol);
            self.upper_diag.push(pivot_val);
        }
        Ok(())
    }

    fn ftran(&mut self, x: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(x.len(), m);
        // Forward solve with L (unit diagonal at pivot rows, step order).
        for k in 0..m {
            let t = x[self.pivot_rows[k] as usize];
            if t == 0.0 {
                continue;
            }
            for &(i, lij) in &self.lower[k] {
                x[i as usize] -= lij * t;
            }
        }
        // Gather into step coordinates and back-substitute with U
        // column-wise from the last step.
        for k in 0..m {
            self.work[k] = x[self.pivot_rows[k] as usize];
        }
        for k in (0..m).rev() {
            let zk = self.work[k] / self.upper_diag[k];
            self.work[k] = zk;
            if zk != 0.0 {
                for &(j, u) in &self.upper[k] {
                    self.work[j as usize] -= u * zk;
                }
            }
        }
        // Scatter back to basis positions and replay the eta file.
        for k in 0..m {
            x[self.col_order[k] as usize] = self.work[k];
        }
        self.etas.ftran(x);
    }

    fn btran(&mut self, y: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(y.len(), m);
        // Updates transpose-apply in reverse before the base solve.
        self.etas.btran(y);
        // Uᵀ forward solve in step coordinates.
        for k in 0..m {
            self.work[k] = y[self.col_order[k] as usize];
        }
        for k in 0..m {
            let mut s = self.work[k];
            for &(j, u) in &self.upper[k] {
                s -= u * self.work[j as usize];
            }
            self.work[k] = s / self.upper_diag[k];
        }
        // Lᵀ backward solve, scattering straight into original rows.
        for k in (0..m).rev() {
            let mut v = self.work[k];
            for &(i, lij) in &self.lower[k] {
                v -= lij * y[i as usize];
            }
            y[self.pivot_rows[k] as usize] = v;
        }
    }

    fn update(&mut self, r: usize, w: &[f64], pivot_tol: f64) -> Result<(), SingularBasis> {
        if w[r].abs() <= pivot_tol {
            return Err(SingularBasis);
        }
        self.etas.push(Eta::from_ftran(r, w));
        Ok(())
    }

    fn update_nnz(&self) -> usize {
        self.etas.nnz()
    }
}

/// Enum dispatcher over the available backends (keeps solver state — and
/// therefore [`crate::simplex::LpSolution`] — `Clone` without boxing).
#[derive(Debug, Clone)]
pub enum Factorizer {
    Dense(DenseInverse),
    Lu(SparseLu),
}

impl Factorizer {
    pub fn new(backend: BasisBackend) -> Self {
        match backend {
            BasisBackend::Dense => Factorizer::Dense(DenseInverse::new()),
            BasisBackend::SparseLu => Factorizer::Lu(SparseLu::new()),
        }
    }

    pub fn backend(&self) -> BasisBackend {
        match self {
            Factorizer::Dense(_) => BasisBackend::Dense,
            Factorizer::Lu(_) => BasisBackend::SparseLu,
        }
    }

    /// Nonzeros in the base factors, or 0 for the dense backend (which
    /// has no sparse factors — callers treat 0 as "use a dense-sized
    /// eta budget").
    pub fn factor_nnz(&self) -> usize {
        match self {
            Factorizer::Dense(_) => 0,
            Factorizer::Lu(f) => f.factor_nnz(),
        }
    }

    /// Worst eta-file fill-in over the factorizer's lifetime; 0 for the
    /// dense backend, which folds updates into the explicit inverse.
    pub fn eta_nnz_peak(&self) -> usize {
        match self {
            Factorizer::Dense(_) => 0,
            Factorizer::Lu(f) => f.eta_nnz_peak(),
        }
    }
}

impl BasisFactorization for Factorizer {
    fn refactor(
        &mut self,
        m: usize,
        cols: &[Vec<(u32, f64)>],
        pivot_tol: f64,
    ) -> Result<(), SingularBasis> {
        match self {
            Factorizer::Dense(f) => f.refactor(m, cols, pivot_tol),
            Factorizer::Lu(f) => f.refactor(m, cols, pivot_tol),
        }
    }

    fn ftran(&mut self, x: &mut [f64]) {
        match self {
            Factorizer::Dense(f) => f.ftran(x),
            Factorizer::Lu(f) => f.ftran(x),
        }
    }

    fn btran(&mut self, y: &mut [f64]) {
        match self {
            Factorizer::Dense(f) => f.btran(y),
            Factorizer::Lu(f) => f.btran(y),
        }
    }

    fn update(&mut self, r: usize, w: &[f64], pivot_tol: f64) -> Result<(), SingularBasis> {
        match self {
            Factorizer::Dense(f) => f.update(r, w, pivot_tol),
            Factorizer::Lu(f) => f.update(r, w, pivot_tol),
        }
    }

    fn update_nnz(&self) -> usize {
        match self {
            Factorizer::Dense(f) => f.update_nnz(),
            Factorizer::Lu(f) => f.update_nnz(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random-ish sparse nonsingular test matrix as columns.
    fn test_cols(m: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..m)
            .map(|c| {
                let mut col = vec![(c as u32, 2.0 + (next() % 7) as f64)]; // dominant diag
                for _ in 0..(next() % 3) {
                    let r = (next() % m as u64) as u32;
                    if r as usize != c && !col.iter().any(|&(row, _)| row == r) {
                        col.push((r, (next() % 9) as f64 - 4.0));
                    }
                }
                col
            })
            .collect()
    }

    fn dense_mul(cols: &[Vec<(u32, f64)>], x: &[f64], m: usize) -> Vec<f64> {
        let mut out = vec![0.0; m];
        for (c, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                out[r as usize] += v * x[c];
            }
        }
        out
    }

    fn dense_mul_t(cols: &[Vec<(u32, f64)>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().map(|&(r, v)| v * y[r as usize]).sum())
            .collect()
    }

    fn check_solves(f: &mut dyn BasisFactorization, cols: &[Vec<(u32, f64)>], m: usize) {
        // FTRAN: B x = b  ⇒  B·x must reproduce b.
        let b: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let mut x = b.clone();
        f.ftran(&mut x);
        let back = dense_mul(cols, &x, m);
        for i in 0..m {
            assert!(
                (back[i] - b[i]).abs() < 1e-8,
                "ftran row {i}: {} vs {}",
                back[i],
                b[i]
            );
        }
        // BTRAN: Bᵀ y = c  ⇒  Bᵀ·y must reproduce c.
        let c: Vec<f64> = (0..m).map(|i| (i as f64 * 1.3).cos() * 2.0).collect();
        let mut y = c.clone();
        f.btran(&mut y);
        let back = dense_mul_t(cols, &y);
        for i in 0..m {
            assert!(
                (back[i] - c[i]).abs() < 1e-8,
                "btran row {i}: {} vs {}",
                back[i],
                c[i]
            );
        }
    }

    #[test]
    fn lu_solves_match_matrix() {
        for seed in [3, 17, 99, 12345] {
            for m in [1, 2, 5, 17, 40] {
                let cols = test_cols(m, seed);
                let mut lu = SparseLu::new();
                lu.refactor(m, &cols, 1e-10)
                    .expect("diag-dominant is nonsingular");
                check_solves(&mut lu, &cols, m);
            }
        }
    }

    #[test]
    fn lu_matches_dense_inverse() {
        let m = 12;
        let cols = test_cols(m, 7);
        let mut lu = SparseLu::new();
        let mut dense = DenseInverse::new();
        lu.refactor(m, &cols, 1e-10).unwrap();
        dense.refactor(m, &cols, 1e-10).unwrap();
        let b: Vec<f64> = (0..m).map(|i| i as f64 - 4.0).collect();
        let (mut xl, mut xd) = (b.clone(), b.clone());
        lu.ftran(&mut xl);
        dense.ftran(&mut xd);
        for i in 0..m {
            assert!((xl[i] - xd[i]).abs() < 1e-8);
        }
        let (mut yl, mut yd) = (b.clone(), b);
        lu.btran(&mut yl);
        dense.btran(&mut yd);
        for i in 0..m {
            assert!((yl[i] - yd[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn singular_basis_detected() {
        // Column 1 is a multiple of column 0.
        let cols = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 2.0), (1, 4.0)]];
        assert_eq!(
            SparseLu::new().refactor(2, &cols, 1e-10),
            Err(SingularBasis)
        );
        assert_eq!(
            DenseInverse::new().refactor(2, &cols, 1e-10),
            Err(SingularBasis)
        );
    }

    #[test]
    fn updates_track_column_replacement() {
        // Replace a column of B and check both backends keep solving the
        // *updated* matrix: update(r, w) with w = B⁻¹ a_new.
        let m = 8;
        let mut cols = test_cols(m, 21);
        let mut lu = SparseLu::new();
        let mut dense = DenseInverse::new();
        lu.refactor(m, &cols, 1e-10).unwrap();
        dense.refactor(m, &cols, 1e-10).unwrap();

        let r = 3usize;
        let new_col: Vec<(u32, f64)> = vec![(1, 1.5), (3, 4.0), (6, -2.0)];
        let mut w = vec![0.0; m];
        for &(row, v) in &new_col {
            w[row as usize] = v;
        }
        let mut w_lu = w.clone();
        lu.ftran(&mut w_lu);
        dense.ftran(&mut w);
        lu.update(r, &w_lu, 1e-10).unwrap();
        dense.update(r, &w, 1e-10).unwrap();
        assert!(lu.update_nnz() > 0);

        cols[r] = new_col;
        check_solves(&mut lu, &cols, m);
        check_solves(&mut dense, &cols, m);

        // A refactor of the updated matrix must agree too.
        lu.refactor(m, &cols, 1e-10).unwrap();
        check_solves(&mut lu, &cols, m);
    }

    #[test]
    fn permutation_heavy_basis() {
        // Anti-diagonal: forces every step to pivot off the diagonal.
        let m = 9;
        let cols: Vec<Vec<(u32, f64)>> = (0..m)
            .map(|c| vec![((m - 1 - c) as u32, 1.0 + c as f64)])
            .collect();
        let mut lu = SparseLu::new();
        lu.refactor(m, &cols, 1e-10).unwrap();
        check_solves(&mut lu, &cols, m);
        assert_eq!(lu.factor_nnz(), m); // pure permutation: diagonal only
    }
}
