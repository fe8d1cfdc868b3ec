//! One assertion per paper artifact, cross-crate: the canonical facts the
//! reproduction must preserve, collected in one place (README.md's
//! "Paper artifacts" section lists the commands that print them).

use fpga_memmap::prelude::*;
use fpga_memmap::workloads::{table3_board, table3_design, TABLE3};
use gmm_core::preprocess::{enumerate_port_allocations, preprocess_pair};

/// Table 1: families, block sizes, configuration ladders, bank ranges.
#[test]
fn table1_catalog() {
    use gmm_arch::{Family, APEX20K, FLEX10K, VIRTEX};
    let range = |devs: &[gmm_arch::Device]| {
        (
            devs.iter().map(|d| d.ram_blocks).min().unwrap(),
            devs.iter().map(|d| d.ram_blocks).max().unwrap(),
        )
    };
    assert_eq!(range(VIRTEX), (8, 208));
    assert_eq!(range(FLEX10K), (9, 20));
    assert_eq!(range(APEX20K), (12, 216));
    assert_eq!(Family::Virtex.block_bits(), 4096);
    assert_eq!(Family::Flex10K.block_bits(), 2048);
    assert_eq!(Family::Apex20K.block_bits(), 2048);
    for f in [Family::Virtex, Family::Flex10K, Family::Apex20K] {
        assert_eq!(f.configurations().len(), 5);
    }
}

/// Table 2: the 3-port 16-word enumeration, including the (8,8,0)
/// rejection the paper singles out.
#[test]
fn table2_allocation_options() {
    let opts = enumerate_port_allocations(3, 16);
    let verdict = |w: &[u32]| opts.iter().find(|o| o.words == w).map(|o| o.accepted);
    // Paper rows (Port1, Port2, Port3 options) — spot-checked:
    assert_eq!(verdict(&[16, 0, 0]), Some(true));
    assert_eq!(verdict(&[8, 8, 0]), Some(false), "explicitly rejected in §4.1.1");
    assert_eq!(verdict(&[8, 4, 0]), Some(true));
    assert_eq!(verdict(&[8, 0, 0]), Some(true));
    assert_eq!(verdict(&[4, 4, 4]), Some(true));
    assert_eq!(verdict(&[2, 2, 2]), Some(true));
    assert_eq!(verdict(&[1, 1, 1]), Some(true));
    assert_eq!(verdict(&[1, 1, 0]), Some(true));
    assert_eq!(verdict(&[0, 0, 0]), Some(true));
    // Geometric sanity: every option fits the instance.
    assert!(opts.iter().all(|o| o.words.iter().sum::<u32>() <= 16));
}

/// Figure 2: the 55x17 worked example, all seven derived quantities.
#[test]
fn figure2_worked_example() {
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
    let e = preprocess_pair(&bank, 55, 17);
    assert_eq!(e.split.alpha, RamConfig::new(16, 8));
    assert_eq!(e.split.beta, RamConfig::new(128, 1));
    assert_eq!(e.fp, 18);
    assert_eq!(e.wp, 3);
    assert_eq!(e.dp, 4);
    assert_eq!(e.wdp, 1);
    assert_eq!(e.cp(), 26);
    assert_eq!(e.cw, 17);
    assert_eq!(e.cd, 56);
}

/// Figure 3: the algorithm is optimal for 2-ported banks (no waste): the
/// port estimate matches the information-theoretic minimum
/// ceil(fraction * 2) for every power-of-two fragment.
#[test]
fn figure3_optimal_for_two_ports() {
    for log_frag in 0..12u32 {
        let frag = 1u32 << log_frag;
        for log_bank in log_frag..13u32 {
            let bank = 1u32 << log_bank;
            let ep = gmm_core::consumed_ports(frag, bank, 2);
            let exact = ((frag as u64 * 2).div_ceil(bank as u64)) as u32;
            assert_eq!(ep, exact.clamp(1, 2), "frag {frag} bank {bank}");
        }
    }
}

/// Table 3: the nine points' complexity parameters are reproduced
/// exactly, and the paper's own time series has the claimed shape.
#[test]
fn table3_points_and_paper_shape() {
    for p in &TABLE3 {
        let board = table3_board(p);
        assert_eq!(board.total_banks(), p.banks);
        assert_eq!(board.total_ports(), p.ports);
        assert_eq!(board.total_config_settings(), p.configs);
        assert_eq!(table3_design(p, 0xF00D).num_segments(), p.segments);
    }
    // Figure 4's visual: both series rise; the gap widens monotonically
    // in problem scale at the extremes.
    let speedups: Vec<f64> = TABLE3
        .iter()
        .map(|p| p.paper_complete_secs / p.paper_global_secs)
        .collect();
    assert!(speedups.first().unwrap() < &1.1);
    assert!(speedups.last().unwrap() > &6.0);
}

/// The global/detailed pipeline solves the two smallest Table 3 points
/// quickly and validates (the full nine-point timing comparison lives in
/// the bench suite).
#[test]
fn table3_small_points_map_end_to_end() {
    for idx in [1usize, 2] {
        let p = &TABLE3[idx - 1];
        let design = table3_design(p, 0xF00D);
        let board = table3_board(p);
        let t = std::time::Instant::now();
        let out = Mapper::new(MapperOptions::new()).map(&design, &board).unwrap();
        assert!(
            t.elapsed().as_secs_f64() < 10.0,
            "global/detailed must stay fast on point {idx}"
        );
        assert!(validate_detailed(&design, &board, &out.detailed).is_empty());
    }
}
