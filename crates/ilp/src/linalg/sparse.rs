//! Compressed sparse column matrix.
//!
//! The simplex engine accesses the constraint matrix column-wise (pricing a
//! nonbasic column, computing `B^-1 A_j`), so CSC is the natural layout.
//! Row indices are `u32`: a million-row LP is far beyond this solver's
//! design envelope.

/// A `(row, col, value)` coordinate entry used to assemble matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    pub row: u32,
    pub col: u32,
    pub val: f64,
}

/// Immutable compressed-sparse-column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    /// `col_ptr[c]..col_ptr[c+1]` indexes the entries of column `c`.
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Assemble from coordinate triplets. Duplicate `(row, col)` entries are
    /// summed; explicit zeros (and duplicates cancelling to zero) are kept,
    /// which is harmless for the solver.
    pub fn from_triplets(rows: usize, cols: usize, mut t: Vec<Triplet>) -> Self {
        for e in &t {
            assert!((e.row as usize) < rows, "row {} out of range", e.row);
            assert!((e.col as usize) < cols, "col {} out of range", e.col);
        }
        t.sort_unstable_by_key(|a| (a.col, a.row));
        let mut col_ptr = vec![0usize; cols + 1];
        let mut row_idx: Vec<u32> = Vec::with_capacity(t.len());
        let mut values: Vec<f64> = Vec::with_capacity(t.len());
        let mut last: Option<(u32, u32)> = None;
        for e in t {
            if last == Some((e.col, e.row)) {
                // Adjacent duplicate after sorting: accumulate.
                *values.last_mut().unwrap() += e.val;
            } else {
                row_idx.push(e.row);
                values.push(e.val);
                last = Some((e.col, e.row));
            }
            col_ptr[e.col as usize + 1] = row_idx.len();
        }
        // Forward-fill column pointers for empty columns.
        for c in 1..=cols {
            if col_ptr[c] < col_ptr[c - 1] {
                col_ptr[c] = col_ptr[c - 1];
            }
        }
        CscMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Build from per-column `(row, value)` lists.
    pub fn from_columns(rows: usize, columns: &[Vec<(u32, f64)>]) -> Self {
        let cols = columns.len();
        let nnz: usize = columns.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in columns {
            let mut entries: Vec<(u32, f64)> = col.clone();
            entries.sort_unstable_by_key(|e| e.0);
            let mut merged: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
            for (r, v) in entries {
                assert!((r as usize) < rows, "row {r} out of range");
                match merged.last_mut() {
                    Some(last) if last.0 == r => last.1 += v,
                    _ => merged.push((r, v)),
                }
            }
            for (r, v) in merged {
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
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
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row indices and values of column `c` as parallel slices.
    #[inline]
    pub fn column(&self, c: usize) -> (&[u32], &[f64]) {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// `out += alpha * A[:, c]` scattered into a dense vector.
    #[inline]
    pub fn scatter_column(&self, c: usize, alpha: f64, out: &mut [f64]) {
        let (idx, val) = self.column(c);
        for (&r, &v) in idx.iter().zip(val) {
            out[r as usize] += alpha * v;
        }
    }

    /// Dense `out = A * x`.
    pub fn mul_vec(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for c in 0..self.cols {
            let xc = x[c];
            if xc != 0.0 {
                self.scatter_column(c, xc, out);
            }
        }
    }

    /// Value at `(r, c)` — linear scan of the column; test/debug helper.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (idx, val) = self.column(c);
        idx.iter()
            .position(|&ri| ri as usize == r)
            .map_or(0.0, |k| val[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        CscMatrix::from_triplets(
            2,
            3,
            vec![
                Triplet {
                    row: 0,
                    col: 0,
                    val: 1.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    val: 3.0,
                },
                Triplet {
                    row: 0,
                    col: 2,
                    val: 2.0,
                },
            ],
        )
    }

    #[test]
    fn triplet_assembly() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn duplicate_triplets_sum() {
        let m = CscMatrix::from_triplets(
            2,
            2,
            vec![
                Triplet {
                    row: 0,
                    col: 0,
                    val: 1.0,
                },
                Triplet {
                    row: 0,
                    col: 0,
                    val: 2.5,
                },
            ],
        );
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn from_columns_matches_triplets() {
        let a = sample();
        let b = CscMatrix::from_columns(2, &[vec![(0, 1.0)], vec![(1, 3.0)], vec![(0, 2.0)]]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_columns_merges_duplicates() {
        let m = CscMatrix::from_columns(3, &[vec![(2, 1.0), (2, 4.0), (0, 1.0)]]);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn mul_vec_basic() {
        let m = sample();
        let mut out = [0.0; 2];
        m.mul_vec(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, [7.0, 6.0]);
    }

    #[test]
    fn empty_columns_have_valid_pointers() {
        let m = CscMatrix::from_triplets(
            2,
            4,
            vec![Triplet {
                row: 1,
                col: 3,
                val: 9.0,
            }],
        );
        assert_eq!(m.column(0).0.len(), 0);
        assert_eq!(m.column(1).0.len(), 0);
        assert_eq!(m.column(2).0.len(), 0);
        assert_eq!(m.get(1, 3), 9.0);
    }
}
