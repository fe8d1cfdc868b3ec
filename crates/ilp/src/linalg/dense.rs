//! Dense row-major matrix used for the explicit basis inverse.

/// A dense row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Square identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major slice of slices (tests, small problems).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        DenseMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Two disjoint mutable row views (`a != b`), used by pivot updates.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b);
        let c = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * c);
            (&mut lo[a * c..(a + 1) * c], &mut hi[..c])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * c);
            let (rb, ra) = (&mut lo[b * c..(b + 1) * c], &mut hi[..c]);
            (ra, rb)
        }
    }

    /// `out = self * x` (matrix-vector product).
    pub fn mul_vec(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for r in 0..self.rows {
            out[r] = super::dot(self.row(r), x);
        }
    }

    /// `out = x' * self` (vector-matrix product).
    pub fn vec_mul(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.rows);
        debug_assert_eq!(out.len(), self.cols);
        out.fill(0.0);
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            super::axpy(xr, self.row(r), out);
        }
    }

    /// Invert a square matrix with Gauss-Jordan elimination and partial
    /// pivoting. Returns `None` when the matrix is numerically singular.
    ///
    /// Used for periodic basis re-inversion; `n` is the row count of the
    /// constraint system, so cubic cost is acceptable at the refactorization
    /// cadence the simplex engine uses.
    pub fn inverse(&self, pivot_tol: f64) -> Option<DenseMatrix> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = DenseMatrix::identity(n);
        for col in 0..n {
            // Partial pivoting: largest magnitude entry on/below diagonal.
            let mut best = col;
            let mut best_abs = a.get(col, col).abs();
            for r in col + 1..n {
                let v = a.get(r, col).abs();
                if v > best_abs {
                    best_abs = v;
                    best = r;
                }
            }
            if best_abs <= pivot_tol {
                return None;
            }
            if best != col {
                a.swap_rows(col, best);
                inv.swap_rows(col, best);
            }
            let piv = a.get(col, col);
            let inv_piv = 1.0 / piv;
            super::scale(inv_piv, a.row_mut(col));
            super::scale(inv_piv, inv.row_mut(col));
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor == 0.0 {
                    continue;
                }
                let (dst, src) = a.two_rows_mut(r, col);
                super::axpy(-factor, src, dst);
                let (dst, src) = inv.two_rows_mut(r, col);
                super::axpy(-factor, src, dst);
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let c = self.cols;
        let (ra, rb) = self.two_rows_mut(a, b);
        ra.swap_with_slice(&mut rb[..c]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let i3 = DenseMatrix::identity(3);
        let inv = i3.inverse(1e-12).unwrap();
        assert_eq!(inv, i3);
    }

    #[test]
    fn mul_vec_basic() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut out = [0.0; 2];
        m.mul_vec(&[1.0, 1.0], &mut out);
        assert_eq!(out, [3.0, 7.0]);
    }

    #[test]
    fn vec_mul_basic() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut out = [0.0; 2];
        m.vec_mul(&[1.0, 1.0], &mut out);
        assert_eq!(out, [4.0, 6.0]);
    }

    #[test]
    fn inverse_2x2() {
        let m = DenseMatrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = m.inverse(1e-12).unwrap();
        // A * A^-1 == I
        let mut prod = DenseMatrix::zeros(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                let mut s = 0.0;
                for k in 0..2 {
                    s += m.get(r, k) * inv.get(k, c);
                }
                prod.set(r, c, s);
            }
        }
        for r in 0..2 {
            for c in 0..2 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((prod.get(r, c) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn inverse_singular_is_none() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.inverse(1e-12).is_none());
    }

    #[test]
    fn inverse_requires_pivoting() {
        // Zero on the first diagonal entry forces a row swap.
        let m = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let inv = m.inverse(1e-12).unwrap();
        assert_eq!(inv.get(0, 1), 1.0);
        assert_eq!(inv.get(1, 0), 1.0);
        assert_eq!(inv.get(0, 0), 0.0);
    }

    #[test]
    fn two_rows_mut_disjoint() {
        let mut m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        {
            let (a, b) = m.two_rows_mut(2, 0);
            a[0] = 50.0;
            b[1] = 20.0;
        }
        assert_eq!(m.get(2, 0), 50.0);
        assert_eq!(m.get(0, 1), 20.0);
    }
}
