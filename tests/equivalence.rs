//! The paper's central claim, as a property: **detailed mapping cannot
//! change the cost**, so the two-phase global/detailed optimum equals the
//! one-step complete optimum. Verified on small random instances where
//! the complete formulation still solves quickly.

use fpga_memmap::prelude::*;
use fpga_memmap::workloads::{board_from_specs, random_design, RandomDesignSpec, TypeSpec};
use gmm_core::solve_complete;
use gmm_core::{CostMatrix, PreTable};
use proptest::prelude::*;

fn small_board_strategy() -> impl Strategy<Value = Board> {
    (2u32..5, 1u32..4).prop_map(|(onchip, sram)| {
        board_from_specs(
            "small",
            &[
                TypeSpec {
                    name: "OnChip".into(),
                    instances: onchip,
                    ports: 2,
                    capacity_bits: 4096,
                    multi_config: true,
                    read_latency: 1,
                    write_latency: 1,
                    placement: Placement::OnChip,
                },
                TypeSpec {
                    name: "SRAM".into(),
                    instances: sram,
                    ports: 1,
                    capacity_bits: 262_144,
                    multi_config: false,
                    read_latency: 2,
                    write_latency: 2,
                    placement: Placement::DirectOffChip,
                },
            ],
        )
    })
}

proptest! {
    // The complete formulation is the expensive one; keep the case count
    // and sizes small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn two_phase_optimum_equals_complete_optimum(
        board in small_board_strategy(),
        seed in any::<u64>(),
        segments in 1usize..6,
    ) {
        let design = random_design(&RandomDesignSpec {
            segments,
            depth: (4, 600),
            width: (1, 24),
            seed,
            ..RandomDesignSpec::default()
        });
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let w = CostWeights::default();
        let backend = SolverBackend::default();

        let two_phase = gmm_core::solve_global(
            &design, &board, &pre, &matrix, &w, &backend, false, &[],
        );
        let complete = solve_complete(&design, &board, &pre, &matrix, &w, &backend, false);

        match (two_phase, complete) {
            (Ok(g), Ok((c, stats))) => {
                let cg = g.cost.weighted(&w);
                let cc = c.cost.weighted(&w);
                prop_assert!(
                    (cg - cc).abs() < 1e-6,
                    "two-phase {cg} vs complete {cc} (model {stats:?})"
                );
                // And detailed mapping realizes the global assignment.
                let detailed = gmm_core::map_detailed(&design, &board, &pre, &g)
                    .expect("<=2-port board");
                prop_assert!(validate_detailed(&design, &board, &detailed).is_empty());
            }
            // Both must agree on infeasibility too.
            (Err(MapError::Infeasible), Err(MapError::Infeasible))
            | (Err(MapError::Unmappable(_)), Err(MapError::Unmappable(_))) => {}
            (g, c) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility disagreement: two-phase {:?} vs complete {:?}",
                    g.map(|x| x.cost), c.map(|(x, _)| x.cost)
                )));
            }
        }
    }
}

/// The Figure 2 example end-to-end: the 55x17 structure's detailed
/// placement consumes exactly CP = 26 ports.
#[test]
fn figure2_ports_conserved_through_detailed_mapping() {
    let bank = BankType::new(
        "fig2",
        12,
        3,
        vec![
            RamConfig::new(128, 1),
            RamConfig::new(64, 2),
            RamConfig::new(32, 4),
            RamConfig::new(16, 8),
        ],
        1,
        1,
        Placement::OnChip,
    )
    .unwrap();
    let board = Board::new("fig2", vec![bank]).unwrap();
    let mut b = DesignBuilder::new("d");
    b.segment("ds", 55, 17).unwrap();
    let design = b.build().unwrap();
    let out = Mapper::new(MapperOptions::new())
        .map(&design, &board)
        .unwrap();
    let ports_used: usize = out.detailed.fragments.iter().map(|f| f.ports.len()).sum();
    assert_eq!(ports_used, 26, "CP_dt must be conserved");
}
