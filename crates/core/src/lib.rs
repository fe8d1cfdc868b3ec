//! # gmm-core — global/detailed memory mapping for FPGA-based
//! # reconfigurable systems
//!
//! A faithful implementation of Ouaiss & Vemuri, *"Global Memory Mapping
//! for FPGA-Based Reconfigurable Systems"* (IPPS/IPDPS 2001):
//!
//! * [`preprocess`] — §4.1.1: the `consumed_ports` algorithm (Figure 3)
//!   and the `CP/CW/CD` coefficients (Figure 2 decomposition);
//! * [`global`] — §4.1.2–4.1.3: the global ILP over `Z_dt` with
//!   uniqueness, port, and capacity constraints, and the three-component
//!   cost objective;
//! * [`detailed`] / [`detailed_ilp`] — §4.2: detailed mapping onto
//!   concrete instances, ports, and configurations (constructive packer
//!   and fragmentation-minimizing ILP);
//! * [`complete`] — the one-step baseline formulation of the paper's prior
//!   work \[9\], reconstructed from the §4 notation, used by the Table 3
//!   comparison;
//! * [`pipeline`] — the retrying global→detailed [`pipeline::Mapper`];
//! * [`cost`] / [`mapping`] — the cost model and validated mapping types.
//!
//! ```
//! use gmm_core::pipeline::{Mapper, MapperOptions};
//! use gmm_arch::Board;
//! use gmm_design::DesignBuilder;
//!
//! let mut b = DesignBuilder::new("quick");
//! b.segment("coeffs", 128, 12).unwrap();
//! b.segment("frame", 4096, 8).unwrap();
//! let design = b.build().unwrap();
//! let board = Board::prototyping("XCV300", 2).unwrap();
//!
//! let outcome = Mapper::new(MapperOptions::new()).map(&design, &board).unwrap();
//! assert_eq!(outcome.global.type_of.len(), 2);
//! ```

pub mod arbitration;
pub mod complete;
pub mod cost;
pub mod detailed;
pub mod detailed_ilp;
pub mod global;
pub mod mapping;
pub mod multipu;
pub mod pipeline;
pub mod preprocess;

pub use arbitration::{
    map_detailed_arbitrated, solve_global_arbitrated, ArbitratedAssignment, ArbitrationOptions,
};
pub use complete::{solve_complete, solve_complete_with_stats, ModelStats};
pub use cost::{CostBreakdown, CostMatrix, CostWeights};
pub use detailed::map_detailed;
pub use detailed_ilp::{map_detailed_ilp, DetailedIlpOptions};
pub use global::{
    solve_global, solve_global_with_stats, MapError, NoGood, SolveTelemetry, SolverBackend,
};
pub use mapping::{
    validate_detailed, validate_detailed_policy, DetailedMapping, Fragment, GlobalAssignment,
    ValidationPolicy, Violation,
};
pub use multipu::{map_multi_pu, MultiPuBoard, PuId, PuOwnership};
pub use pipeline::{DetailedStrategy, MapRun, MapStats, Mapper, MapperOptions, MappingOutcome};
pub use preprocess::{consumed_ports, enumerate_port_allocations, round_pow2, PreTable};
