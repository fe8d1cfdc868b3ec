//! # gmm-ilp — a self-contained mixed-integer linear programming solver
//!
//! This crate replaces the commercial CPLEX solver used by the paper
//! *"Global Memory Mapping for FPGA-Based Reconfigurable Systems"*
//! (Ouaiss & Vemuri, IPPS 2001). It provides:
//!
//! * a [`model::Model`] building API (continuous / integer / binary
//!   variables, linear constraints, min/max objectives),
//! * a bounded-variable two-phase primal [`simplex`] engine that solves
//!   FTRAN/BTRAN systems through a pluggable
//!   [`linalg::BasisFactorization`] — sparse LU with Markowitz-style
//!   pivoting and product-form eta updates by default
//!   ([`BasisBackend::SparseLu`]), with the explicit dense inverse
//!   ([`BasisBackend::Dense`]) retained as a reference/fallback for tiny
//!   or pathologically dense bases,
//! * a serial best-bound branch-and-bound MIP engine ([`branch`]) with
//!   pseudo-cost branching that **warm-starts** each child node's LP from
//!   the parent's optimal basis (a short dual simplex repairs primal
//!   feasibility, skipping phase 1), and the root LP from a known
//!   feasible integer point when the caller has one,
//! * a brute-force reference solver ([`brute`]) used to validate the
//!   engines on small instances.

pub mod branch;
pub mod brute;
pub mod control;
pub mod error;
pub mod io;
pub mod linalg;
pub mod model;
pub mod simplex;
pub mod standard;

pub use control::{CancelToken, NullObserver, ProgressObserver, SolveControl};
pub use error::{IlpError, LpStatus, MipStatus, StopReason};
pub use linalg::BasisBackend;
pub use model::{lin, LinExpr, Model, Objective, Sense, VarId, VarKind};
pub use simplex::PricingRule;
