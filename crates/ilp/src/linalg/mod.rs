//! Linear algebra used by the simplex engine.
//!
//! Three layers:
//!
//! * dense/sparse primitives — a dense row-major matrix, a compressed
//!   sparse column matrix for the constraint matrix (pricing and column
//!   extraction are column operations), and dense vector kernels;
//! * [`eta`] — product-form-of-the-inverse updates appended per pivot;
//! * [`lu`] — the [`BasisFactorization`] abstraction the solver performs
//!   FTRAN/BTRAN through, with a sparse-LU backend ([`SparseLu`],
//!   Markowitz-style pivoting, the default) and the explicit dense
//!   inverse ([`DenseInverse`]) as reference/fallback.
//!
//! Everything is `f64`.

mod dense;
pub mod eta;
pub mod lu;
mod sparse;
mod vector;

pub use dense::DenseMatrix;
pub use eta::{Eta, EtaFile};
pub use lu::{BasisBackend, BasisFactorization, DenseInverse, Factorizer, SingularBasis, SparseLu};
pub use sparse::{CscMatrix, Triplet};
pub use vector::{axpy, dot, infinity_norm, scale, sparse_dot};
