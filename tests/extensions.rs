//! Integration tests for the paper's §6 future-work extensions:
//! multi-processing-unit pin models and port arbitration — including the
//! cross-crate pieces (simulator behaviour) their unit tests cannot reach.

use fpga_memmap::prelude::*;
use gmm_core::arbitration::{map_detailed_arbitrated, solve_global_arbitrated, ArbitrationOptions};
use gmm_core::multipu::{map_multi_pu, MultiPuBoard, PuId, PuOwnership};
use gmm_core::validate_detailed_policy;
use gmm_core::{CostMatrix, PreTable};
use gmm_sim::{simulate_mapping, Trace};

fn tight_world() -> (Design, Board) {
    let mut b = DesignBuilder::new("tight");
    b.segment("a", 100, 8).unwrap();
    b.segment("c", 100, 8).unwrap();
    let design = b.build().unwrap();
    let board = Board::new(
        "tiny",
        vec![BankType::new(
            "sram",
            1,
            1,
            vec![RamConfig::new(4096, 8)],
            2,
            2,
            Placement::DirectOffChip,
        )
        .unwrap()],
    )
    .unwrap();
    (design, board)
}

/// Shared ports serialize in the simulator: the §6 "price" of arbitration
/// is visible as stall cycles without any simulator change.
#[test]
fn simulator_shows_arbitration_stalls() {
    let (design, board) = tight_world();
    let pre = PreTable::build(&design, &board);
    let matrix = CostMatrix::build(&design, &board, &pre);
    let arb = ArbitrationOptions::default();
    let a = solve_global_arbitrated(
        &design,
        &board,
        &pre,
        &matrix,
        &CostWeights::default(),
        &SolverBackend::default(),
        &arb,
    )
    .unwrap();
    assert_eq!(a.overflow, vec![1]);
    let detailed = map_detailed_arbitrated(&design, &board, &a.global, &arb).unwrap();
    assert!(validate_detailed_policy(&design, &board, &detailed, arb.policy()).is_empty());

    let trace = Trace::random(&design, 400, 11);
    let report = simulate_mapping(&design, &board, &detailed, &trace).unwrap();
    assert!(
        report.total_stalls > 0,
        "port sharing must show up as stall cycles"
    );

    // Contrast: a dedicated-port mapping of the same trace on a roomier
    // board has no port-sharing stalls beyond pipelining.
    let roomy = Board::new(
        "roomy",
        vec![BankType::new(
            "sram",
            2,
            1,
            vec![RamConfig::new(4096, 8)],
            2,
            2,
            Placement::DirectOffChip,
        )
        .unwrap()],
    )
    .unwrap();
    let out = Mapper::new(MapperOptions::new())
        .map(&design, &roomy)
        .unwrap();
    let dedicated = simulate_mapping(&design, &roomy, &out.detailed, &trace).unwrap();
    assert!(
        dedicated.total_stalls < report.total_stalls,
        "dedicated ports must stall less: {} vs {}",
        dedicated.total_stalls,
        report.total_stalls
    );
}

/// Multi-PU mapping changes assignments *and* the simulated traffic
/// pattern matches: segments placed near their PU pay fewer pin
/// crossings.
#[test]
fn multi_pu_end_to_end() {
    // Two identical on-chip types, two PUs, each next to one type.
    let mk_bank = |name: &str| {
        BankType::new(
            name,
            4,
            2,
            vec![RamConfig::new(4096, 1), RamConfig::new(512, 8)],
            1,
            1,
            Placement::OnChip,
        )
        .unwrap()
    };
    let board = Board::new("mpu", vec![mk_bank("near0"), mk_bank("near1")]).unwrap();
    let mpu = MultiPuBoard::new(board.clone(), vec![vec![0, 8], vec![8, 0]]).unwrap();

    let mut b = DesignBuilder::new("d");
    for i in 0..6 {
        b.segment(format!("s{i}"), 300, 8).unwrap();
    }
    let design = b.build().unwrap();
    let owner = PuOwnership(vec![PuId(0), PuId(1), PuId(0), PuId(1), PuId(0), PuId(1)]);

    let mapper = Mapper::new(MapperOptions::new());
    let out = map_multi_pu(&mapper, &design, &mpu, &owner).unwrap();
    for (d, t) in out.global.type_of.iter().enumerate() {
        assert_eq!(
            t.0, owner.0[d].0,
            "segment {d} must sit on the type next to its PU"
        );
    }
    // The detailed mapping still validates under the base rules.
    assert!(validate_detailed(&design, &board, &out.detailed).is_empty());

    // Compare against deliberately swapped ownership: the mapper's
    // pin-delay cost must be strictly better.
    let swapped = PuOwnership(vec![PuId(1), PuId(0), PuId(1), PuId(0), PuId(1), PuId(0)]);
    let pre = PreTable::build(&design, &board);
    let matrix =
        CostMatrix::build_with_pins(&design, &board, &pre, |d, t| mpu.pins(owner.0[d.0], t));
    // Evaluate the aligned assignment against the *swapped* cost view:
    // it must look worse there than the swapped-optimal mapping.
    let swapped_matrix =
        CostMatrix::build_with_pins(&design, &board, &pre, |d, t| mpu.pins(swapped.0[d.0], t));
    let aligned_cost = gmm_core::cost::assignment_cost(&matrix, &out.global.type_of);
    let mis_cost = gmm_core::cost::assignment_cost(&swapped_matrix, &out.global.type_of);
    assert!(aligned_cost.pin_delay < mis_cost.pin_delay);
}

/// Arbitration widens feasibility monotonically: anything the base model
/// maps, the arbitrated model maps at the same cost with zero overflow.
#[test]
fn arbitration_is_conservative_extension() {
    let mut b = DesignBuilder::new("d");
    for i in 0..5 {
        b.segment(format!("s{i}"), 128 + 64 * i, 4 + i).unwrap();
    }
    let design = b.build().unwrap();
    let board = Board::prototyping("XCV300", 2).unwrap();
    let pre = PreTable::build(&design, &board);
    let matrix = CostMatrix::build(&design, &board, &pre);
    let w = CostWeights::default();
    let backend = SolverBackend::default();

    let base =
        gmm_core::solve_global(&design, &board, &pre, &matrix, &w, &backend, false, &[]).unwrap();
    let arb = solve_global_arbitrated(
        &design,
        &board,
        &pre,
        &matrix,
        &w,
        &backend,
        &ArbitrationOptions::default(),
    )
    .unwrap();
    assert_eq!(arb.overflow.iter().sum::<u32>(), 0, "no need to share");
    assert!(
        (base.cost.weighted(&w) - arb.global.cost.weighted(&w)).abs() < 1e-6,
        "same optimum when ports suffice"
    );
}
