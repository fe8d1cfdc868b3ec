//! Solver comparison: run the same design point through (a) the complete
//! one-step ILP and (b) the global/detailed pipeline — the Table 3 story
//! in miniature.
//!
//! ```sh
//! cargo run --release --example solver_comparison [point]
//! ```

use fpga_memmap::prelude::*;
use fpga_memmap::workloads::{table3_board, table3_design, TABLE3};
use gmm_ilp::branch::MipOptions;
use std::time::{Duration, Instant};

fn main() {
    let point_idx: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2);
    assert!((1..=9).contains(&point_idx), "point must be 1..9");
    let point = TABLE3[point_idx - 1];
    let design = table3_design(&point, 0xF00D);
    let board = table3_board(&point);
    println!(
        "Table 3 point {}: {} segments, {} banks, {} ports, {} config settings",
        point.index, point.segments, point.banks, point.ports, point.configs
    );
    println!(
        "paper (CPLEX, 248 MHz UltraSPARC): complete {}s, global/detailed {}s\n",
        point.paper_complete_secs, point.paper_global_secs
    );

    let cap = Duration::from_secs(30);
    let capped_mip = MipOptions {
        time_limit: Some(cap),
        ..MipOptions::default()
    };

    // (a) Complete one-step formulation.
    let mut opts = MapperOptions::new();
    opts.backend = SolverBackend::Serial(capped_mip.clone());
    let mapper = Mapper::new(opts);
    let t = Instant::now();
    match mapper.map_complete(&design, &board) {
        Ok((assignment, stats)) => {
            println!(
                "complete:           {:>8.2?}  ({} vars, {} cons, cost {:.0})",
                t.elapsed(),
                stats.variables,
                stats.constraints,
                assignment.cost.weighted(&CostWeights::default())
            );
        }
        Err(e) => println!("complete:           {:>8.2?}  (capped: {e})", t.elapsed()),
    }

    // (b) Global/detailed.
    let mut opts = MapperOptions::new();
    opts.backend = SolverBackend::Serial(capped_mip);
    let mapper = Mapper::new(opts);
    let t = Instant::now();
    let mapping = mapper.map(&design, &board).expect("global/detailed solves");
    println!(
        "global/detailed:    {:>8.2?}  (cost {:.0}, {} fragments)",
        t.elapsed(),
        mapping.cost.weighted(&CostWeights::default()),
        mapping.detailed.fragments.len()
    );
}
