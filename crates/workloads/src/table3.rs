//! The nine **Table 3** design points.
//!
//! The paper characterizes each point by four complexity parameters: the
//! number of logical segments, and — over the physical side — the total
//! bank count, total port count, and total configuration-setting count.
//! The original designs are not published; this module generates seeded
//! synthetic instances that reproduce each row's four parameters
//! **exactly**, which is all the ILP formulations see.
//!
//! | point | #segments | #banks | #ports | #configs |
//! |-------|-----------|--------|--------|----------|
//! | 1     | 22        | 13     | 25     | 50       |
//! | 2     | 32        | 23     | 45     | 100      |
//! | 3     | 32        | 45     | 77     | 150      |
//! | 4     | 42        | 45     | 77     | 150      |
//! | 5     | 32        | 65     | 105    | 150      |
//! | 6     | 62        | 65     | 105    | 150      |
//! | 7     | 32        | 180    | 265    | 375      |
//! | 8     | 62        | 180    | 265    | 375      |
//! | 9     | 132       | 180    | 265    | 375      |

use crate::random::{board_from_specs, TypeSpec};
use gmm_arch::{Board, Placement};
use gmm_design::{Design, DesignBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One Table 3 row's complexity parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table3Point {
    pub index: usize,
    pub segments: usize,
    pub banks: u32,
    pub ports: u32,
    pub configs: u32,
    /// Execution time of the complete approach in the paper (seconds, SUN
    /// Ultra-30 @ 248 MHz, CPLEX).
    pub paper_complete_secs: f64,
    /// Execution time of the global/detailed approach in the paper.
    pub paper_global_secs: f64,
}

/// The nine rows of Table 3, including the paper's reported CPLEX times.
pub const TABLE3: [Table3Point; 9] = [
    Table3Point { index: 1, segments: 22, banks: 13, ports: 25, configs: 50, paper_complete_secs: 8.1, paper_global_secs: 7.8 },
    Table3Point { index: 2, segments: 32, banks: 23, ports: 45, configs: 100, paper_complete_secs: 29.4, paper_global_secs: 25.3 },
    Table3Point { index: 3, segments: 32, banks: 45, ports: 77, configs: 150, paper_complete_secs: 99.3, paper_global_secs: 50.7 },
    Table3Point { index: 4, segments: 42, banks: 45, ports: 77, configs: 150, paper_complete_secs: 130.4, paper_global_secs: 59.2 },
    Table3Point { index: 5, segments: 32, banks: 65, ports: 105, configs: 150, paper_complete_secs: 172.7, paper_global_secs: 105.1 },
    Table3Point { index: 6, segments: 62, banks: 65, ports: 105, configs: 150, paper_complete_secs: 411.0, paper_global_secs: 140.4 },
    Table3Point { index: 7, segments: 32, banks: 180, ports: 265, configs: 375, paper_complete_secs: 518.3, paper_global_secs: 216.4 },
    Table3Point { index: 8, segments: 62, banks: 180, ports: 265, configs: 375, paper_complete_secs: 1225.0, paper_global_secs: 309.0 },
    Table3Point { index: 9, segments: 132, banks: 180, ports: 265, configs: 375, paper_complete_secs: 2989.0, paper_global_secs: 489.0 },
];

/// Build a board matching `(banks, ports, configs)` exactly.
///
/// Strategy: a dual-ported 5-configuration on-chip type provides the
/// config settings (`configs = 5 * its total ports`); the rest of the bank
/// budget is filled with single-configuration dual- and single-port
/// off-chip RAM so the bank and port totals land exactly.
pub fn table3_board(point: &Table3Point) -> Board {
    assert_eq!(point.configs % 5, 0, "Table 3 config counts are 5-ladders");
    let ports_multi = point.configs / 5;
    // Dual-port multi-config instances a, single-port multi-config b:
    // 2a + b = ports_multi. Then the single-config remainder must satisfy
    // rem_banks <= rem_ports <= 2 * rem_banks.
    let mut chosen = None;
    let mut a = ports_multi / 2;
    loop {
        let b = ports_multi - 2 * a;
        let banks_multi = a + b;
        if banks_multi <= point.banks {
            let rem_banks = point.banks - banks_multi;
            let rem_ports = point.ports as i64 - ports_multi as i64;
            if rem_ports >= rem_banks as i64 && rem_ports <= 2 * rem_banks as i64 {
                chosen = Some((a, b, rem_banks, rem_ports as u32));
                break;
            }
        }
        if a == 0 {
            break;
        }
        a -= 1;
    }
    let (a, b, rem_banks, rem_ports) = chosen.unwrap_or_else(|| {
        panic!(
            "no bank split reproduces point {} (banks {}, ports {}, configs {})",
            point.index, point.banks, point.ports, point.configs
        )
    });
    // Single-config remainder: d dual-port, s single-port.
    let d = rem_ports - rem_banks; // 2d + s = rem_ports, d + s = rem_banks
    let s = rem_banks - d;

    let mut specs = Vec::new();
    if a > 0 {
        specs.push(TypeSpec {
            name: "BlockRAM-DP".into(),
            instances: a,
            ports: 2,
            capacity_bits: 4096,
            multi_config: true,
            read_latency: 1,
            write_latency: 1,
            placement: Placement::OnChip,
        });
    }
    if b > 0 {
        specs.push(TypeSpec {
            name: "BlockRAM-SP".into(),
            instances: b,
            ports: 1,
            capacity_bits: 4096,
            multi_config: true,
            read_latency: 1,
            write_latency: 1,
            placement: Placement::OnChip,
        });
    }
    if d > 0 {
        specs.push(TypeSpec {
            name: "SRAM-DP".into(),
            instances: d,
            ports: 2,
            capacity_bits: 262_144,
            multi_config: false,
            read_latency: 2,
            write_latency: 2,
            placement: Placement::DirectOffChip,
        });
    }
    if s > 0 {
        specs.push(TypeSpec {
            name: "SRAM-SP".into(),
            instances: s,
            ports: 1,
            capacity_bits: 524_288,
            multi_config: false,
            read_latency: 3,
            write_latency: 3,
            placement: Placement::IndirectOffChip { hops: 1 },
        });
    }
    board_from_specs(&format!("table3-point{}", point.index), &specs)
}

/// Build a design with exactly `point.segments` segments whose aggregate
/// port demand stays within the board's budget (so both formulations are
/// feasible, as in the paper's experiments).
///
/// Feasibility is enforced **by construction**, not by distributional
/// luck: every small/medium segment's cheapest placement on a Table 3
/// board consumes one port, while a large segment may need two, so large
/// draws are rationed to half the spare port budget
/// (`ports - segments`). This keeps every RNG stream mappable.
pub fn table3_design(point: &Table3Point, seed: u64) -> Design {
    let mut rng = StdRng::seed_from_u64(seed ^ (point.index as u64) << 32);
    let mut b = DesignBuilder::new(format!("table3-design{}", point.index));
    let spare_ports = point.ports.saturating_sub(point.segments as u32);
    // Each large segment can cost one extra port beyond the 1/segment
    // baseline on both its fragments; budget them in pairs.
    let mut large_left = spare_ports / 2;
    for i in 0..point.segments {
        // Mostly small segments, some medium, a rationed number of large
        // multi-fragment ones.
        let class = rng.gen_range(0..10);
        let (depth, width) = match class {
            0..=5 => (rng.gen_range(16..=256), rng.gen_range(1..=8)),
            6..=8 => (rng.gen_range(256..=2048), rng.gen_range(4..=16)),
            _ if large_left > 0 => {
                large_left -= 1;
                (rng.gen_range(2048..=8192), rng.gen_range(8..=32))
            }
            _ => (rng.gen_range(256..=2048), rng.gen_range(4..=16)),
        };
        b.segment(format!("ds{i}"), depth, width)
            .expect("nonzero dims");
    }
    b.build().expect("nonempty")
}

/// The standard instance (board + design) of one Table 3 point.
pub fn table3_instance(index: usize) -> (Design, Board, Table3Point) {
    let point = TABLE3[index - 1];
    (table3_design(&point, 0xF00D), table3_board(&point), point)
}

/// Point 9 scaled ×32: a Table-3-shaped instance whose global ILP runs
/// for on the order of a *second* on current hardware (the unscaled
/// points solve in milliseconds through the two-phase pipeline). The
/// test suite's standard target for deadline and cancellation races —
/// one place to retune if solver speedups ever make those tests racy.
pub fn slow_table3_instance() -> (Design, Board) {
    let p9 = TABLE3[8];
    let point = Table3Point {
        segments: p9.segments * 32,
        banks: p9.banks * 32,
        ports: p9.ports * 32,
        ..p9
    };
    (table3_design(&point, 0xF00D), table3_board(&point))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_reproduce_complexity_parameters() {
        for p in &TABLE3 {
            let board = table3_board(p);
            assert_eq!(board.total_banks(), p.banks, "point {} banks", p.index);
            assert_eq!(board.total_ports(), p.ports, "point {} ports", p.index);
            assert_eq!(
                board.total_config_settings(),
                p.configs,
                "point {} configs",
                p.index
            );
            let design = table3_design(p, 0xF00D);
            assert_eq!(design.num_segments(), p.segments);
        }
    }

    #[test]
    fn paper_times_monotone_in_problem_size() {
        for w in TABLE3.windows(2) {
            assert!(w[1].paper_complete_secs > w[0].paper_complete_secs);
            assert!(w[1].paper_global_secs > w[0].paper_global_secs);
        }
    }

    #[test]
    fn paper_speedup_grows() {
        let first = TABLE3[0].paper_complete_secs / TABLE3[0].paper_global_secs;
        let last = TABLE3[8].paper_complete_secs / TABLE3[8].paper_global_secs;
        assert!(first < 1.1, "small designs nearly tie");
        assert!(last > 6.0, "large designs win by > 6x");
    }

    #[test]
    fn smallest_point_globally_mappable() {
        use gmm_core::pipeline::{Mapper, MapperOptions};
        let (design, board, _) = table3_instance(1);
        let out = Mapper::new(MapperOptions::new()).map(&design, &board).unwrap();
        assert_eq!(out.global.type_of.len(), 22);
        let violations = gmm_core::validate_detailed(&design, &board, &out.detailed);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
