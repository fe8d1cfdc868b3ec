//! Product-form-of-the-inverse update file.
//!
//! After a simplex pivot that replaces the variable in basis row `r` with
//! an entering column whose FTRAN image is `w = B⁻¹ aₑ`, the new basis
//! inverse is `B'⁻¹ = E · B⁻¹` where `E` is the identity except for column
//! `r`:
//!
//! ```text
//! E[r][r] = 1 / wᵣ          E[i][r] = -wᵢ / wᵣ   (i ≠ r)
//! ```
//!
//! Instead of forming `B'⁻¹`, factorization backends append one sparse
//! [`Eta`] per pivot and replay the file after (FTRAN) or before (BTRAN)
//! the base-factor solve. The file is cleared at every refactorization,
//! bounding its length by `refactor_every`.

/// One elementary transformation: column `r` of an otherwise-identity
/// matrix, stored sparsely.
#[derive(Debug, Clone)]
pub struct Eta {
    /// Pivot row of the update.
    pub r: u32,
    /// `1 / wᵣ`.
    pub pivot_inv: f64,
    /// Off-pivot entries `(i, wᵢ)` with `wᵢ ≠ 0`, excluding row `r`.
    pub entries: Vec<(u32, f64)>,
}

impl Eta {
    /// Build from the FTRAN image `w` of the entering column; `w[r]` must
    /// be safely nonzero (the caller checks against its pivot tolerance).
    pub fn from_ftran(r: usize, w: &[f64]) -> Eta {
        let pivot_inv = 1.0 / w[r];
        let entries = w
            .iter()
            .enumerate()
            .filter(|&(i, &wi)| i != r && wi != 0.0)
            .map(|(i, &wi)| (i as u32, wi))
            .collect();
        Eta {
            r: r as u32,
            pivot_inv,
            entries,
        }
    }

    /// `x ← E x` (FTRAN direction).
    #[inline]
    pub fn apply(&self, x: &mut [f64]) {
        let r = self.r as usize;
        let xr = x[r] * self.pivot_inv;
        if xr == 0.0 && x[r] == 0.0 {
            return;
        }
        x[r] = xr;
        for &(i, wi) in &self.entries {
            x[i as usize] -= wi * xr;
        }
    }

    /// `y ← Eᵀ y` (BTRAN direction): only `y[r]` changes.
    #[inline]
    pub fn apply_transposed(&self, y: &mut [f64]) {
        let r = self.r as usize;
        let mut acc = y[r];
        for &(i, wi) in &self.entries {
            acc -= wi * y[i as usize];
        }
        y[r] = acc * self.pivot_inv;
    }
}

/// Ordered sequence of [`Eta`] updates since the last refactorization.
#[derive(Debug, Clone, Default)]
pub struct EtaFile {
    etas: Vec<Eta>,
    nnz: usize,
    /// High-water mark of `nnz` over the file's whole lifetime. Unlike
    /// `nnz` it survives [`EtaFile::clear`], so one LP solve can report
    /// its worst fill-in even though the file is emptied at every
    /// refactorization.
    peak: usize,
}

impl EtaFile {
    pub fn new() -> Self {
        EtaFile::default()
    }

    pub fn clear(&mut self) {
        self.etas.clear();
        self.nnz = 0;
    }

    pub fn push(&mut self, eta: Eta) {
        self.nnz += eta.entries.len() + 1;
        if self.nnz > self.peak {
            self.peak = self.nnz;
        }
        self.etas.push(eta);
    }

    pub fn len(&self) -> usize {
        self.etas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.etas.is_empty()
    }

    /// Total stored nonzeros; backends use this to decide when an early
    /// refactorization beats replaying a fat file.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Largest `nnz` the file ever reached, across clears.
    pub fn peak_nnz(&self) -> usize {
        self.peak
    }

    /// Replay the file forward: `x ← Eₖ ⋯ E₁ x`.
    pub fn ftran(&self, x: &mut [f64]) {
        for eta in &self.etas {
            eta.apply(x);
        }
    }

    /// Replay the file backward-transposed: `y ← E₁ᵀ ⋯ Eₖᵀ y`.
    pub fn btran(&self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            eta.apply_transposed(y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference: multiply by the explicit E matrix.
    fn dense_e(eta: &Eta, m: usize) -> Vec<Vec<f64>> {
        let mut e = vec![vec![0.0; m]; m];
        for (i, row) in e.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        let r = eta.r as usize;
        e[r][r] = eta.pivot_inv;
        for &(i, wi) in &eta.entries {
            e[i as usize][r] = -wi * eta.pivot_inv;
        }
        e
    }

    #[test]
    fn apply_matches_dense_multiply() {
        let w = [0.5, 2.0, 0.0, -1.5];
        let eta = Eta::from_ftran(1, &w);
        let e = dense_e(&eta, 4);
        let x0 = [1.0, -2.0, 3.0, 4.0];
        let mut x = x0;
        eta.apply(&mut x);
        for i in 0..4 {
            let want: f64 = (0..4).map(|j| e[i][j] * x0[j]).sum();
            assert!((x[i] - want).abs() < 1e-12, "row {i}: {} vs {want}", x[i]);
        }
    }

    #[test]
    fn apply_transposed_matches_dense_multiply() {
        let w = [0.25, -4.0, 1.0];
        let eta = Eta::from_ftran(2, &w);
        let e = dense_e(&eta, 3);
        let y0 = [2.0, -1.0, 0.5];
        let mut y = y0;
        eta.apply_transposed(&mut y);
        for i in 0..3 {
            let want: f64 = (0..3).map(|j| e[j][i] * y0[j]).sum();
            assert!((y[i] - want).abs() < 1e-12, "row {i}: {} vs {want}", y[i]);
        }
    }

    #[test]
    fn file_replays_in_order() {
        // Two successive updates must compose as E2 * E1 (FTRAN) and
        // E1' * E2' (BTRAN): verify the inverse property — btran after
        // ftran with the same vector through both must be consistent with
        // a dense product.
        let mut file = EtaFile::new();
        file.push(Eta::from_ftran(0, &[2.0, 1.0]));
        file.push(Eta::from_ftran(1, &[0.5, 4.0]));
        assert_eq!(file.len(), 2);
        assert!(file.nnz() >= 2);

        let mut x = [1.0, 1.0];
        file.ftran(&mut x);
        // E1: [0.5, 0.5]; E2: r=1: x1 = 0.5/4, x0 = 0.5 - 0.5*0.125
        assert!((x[1] - 0.125).abs() < 1e-12);
        assert!((x[0] - (0.5 - 0.5 * 0.125)).abs() < 1e-12);

        file.clear();
        assert!(file.is_empty());
        assert_eq!(file.nnz(), 0);
    }
}
