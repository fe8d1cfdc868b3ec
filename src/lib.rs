//! # fpga-memmap
//!
//! A complete, self-contained implementation of **"Global Memory Mapping
//! for FPGA-Based Reconfigurable Systems"** (Iyad Ouaiss and Ranga Vemuri,
//! IPPS/IPDPS 2001): ILP-based assignment of an application's data
//! structures onto the heterogeneous physical RAMs of a reconfigurable
//! board, split into a fast **global** phase (structure → bank *type*) and
//! a cost-neutral **detailed** phase (structure → concrete instances,
//! ports, and configurations).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`gmm_api`] | the unified solve-session facade: `MapRequest`/`MapReport`, deadlines, cancellation, progress events |
//! | [`gmm_core`] | pre-processing (Fig. 2/3), global ILP (§4.1), detailed mappers (§4.2), complete one-step baseline, cost model, pipeline |
//! | [`gmm_ilp`] | MILP solver: bounded simplex and serial best-bound branch-and-bound (replaces CPLEX) |
//! | [`gmm_arch`] | bank types, Table 1 device catalog, boards |
//! | [`gmm_design`] | data segments, access profiles, lifetimes, conflicts |
//! | [`gmm_heur`] | greedy first-fit heuristic mapper and the `SolveMode` portfolio (heuristic seeds branch-and-bound) |
//! | [`gmm_sim`] | cycle-level access simulator, adder-free decode checks, cache-hit replay validation |
//! | [`gmm_workloads`] | Table 3 design points, DSP kernels, random designs, load-test instance streams |
//! | [`gmm_service`] | batch mapping service: FIFO job queue, content-addressed solution cache, `mapsrv` TCP daemon |
//!
//! ## Quickstart
//!
//! ```
//! use fpga_memmap::prelude::*;
//!
//! // The application: two data structures from a filter kernel.
//! let mut b = DesignBuilder::new("demo");
//! b.segment("coefficients", 64, 12).unwrap();
//! b.segment("frame_buffer", 16384, 8).unwrap();
//! let design = b.build().unwrap();
//!
//! // The platform: a Virtex part plus two off-chip SRAMs.
//! let board = Board::prototyping("XCV300", 2).unwrap();
//!
//! // Map through the solve-session facade: global ILP, then detailed
//! // placement, with the session bounded to 30 seconds.
//! let report = MapRequest::new(design.clone(), board.clone())
//!     .deadline(std::time::Duration::from_secs(30))
//!     .execute()
//!     .unwrap();
//! assert_eq!(report.termination, Termination::Optimal);
//! let outcome = report.outcome.unwrap();
//! println!("latency cost: {}", outcome.cost.latency);
//! assert!(validate_detailed(&design, &board, &outcome.detailed).is_empty());
//! ```

pub use gmm_api as api;
pub use gmm_arch as arch;
pub use gmm_core as core;
pub use gmm_design as design;
pub use gmm_heur as heur;
pub use gmm_ilp as ilp;
pub use gmm_service as service;
pub use gmm_sim as sim;
pub use gmm_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use gmm_api::{
        ApiError, CancelToken, MapReport, MapRequest, ProgressObserver, Termination,
    };
    pub use gmm_arch::{BankType, BankTypeId, Board, BoardBuilder, Placement, RamConfig};
    pub use gmm_core::pipeline::{DetailedStrategy, Mapper, MapperOptions, MappingOutcome};
    pub use gmm_core::{
        validate_detailed, CostMatrix, CostWeights, DetailedMapping, GlobalAssignment, MapError,
        PreTable, SolverBackend,
    };
    pub use gmm_design::{AccessProfile, Design, DesignBuilder, Lifetime, SegmentId};
    pub use gmm_heur::{greedy_map, greedy_solve, HeurInfeasible, HeurOptions, SolveMode};
    pub use gmm_service::{JobConfig, JobQueue, JobState, QueueOptions};
    pub use gmm_sim::{simulate_mapping, Trace};
}
