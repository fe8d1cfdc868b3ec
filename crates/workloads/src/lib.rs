//! # gmm-workloads — workload generators for the mapping experiments
//!
//! Three families:
//!
//! * [`table3`] — seeded synthetic instances reproducing the exact four
//!   complexity parameters of each of the paper's nine Table 3 design
//!   points, with the paper's reported CPLEX times attached;
//! * [`kernels`] — realistic DSP designs (FIR, 2-D convolution, FFT,
//!   blocked matmul, histogram equalization) with access profiles and
//!   phase lifetimes;
//! * [`random`] — parameterised random designs and boards for property
//!   tests and stress runs;
//! * [`stream`] — unbounded seeded streams of scaled-down Table-3-style
//!   instances for load-testing the batch mapping service;
//! * [`sweep`] — architecture-sweep grids (boards × a design suite)
//!   scored by geometric-mean mapped cost, with a Pareto front over
//!   cost vs. total capacity.

pub mod kernels;
pub mod random;
pub mod stream;
pub mod sweep;
pub mod table3;

pub use random::{board_from_specs, random_design, RandomDesignSpec, TypeSpec};
pub use stream::{
    cycling_instances, stream_instances, CyclingStream, InstanceStream, StreamInstance, StreamSpec,
};
pub use sweep::{
    arch_grid, geometric_mean, pareto_front, suite_designs, ArchPoint, ArchScore, SweepSpec,
};
pub use table3::{
    slow_table3_instance, table3_board, table3_design, table3_instance, Table3Point, TABLE3,
};
