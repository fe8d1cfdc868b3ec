//! The full §3.2→§3.3 front end: task graph → ASAP schedule → lifetimes →
//! conflicts → overlap-aware mapping. Demonstrates the paper's point that
//! life-cycle analysis "could further improve the memory mapping since
//! segments that can overlap could be placed in the same storage area".

use fpga_memmap::prelude::*;
use gmm_design::{TaskGraph, TaskId};

/// A two-phase application: phase 1 fills a working buffer from the
/// input, phase 2 reduces it into an output. The working buffer and the
/// output never coexist with the phase-1 scratch.
fn build_design_with_taskgraph() -> Design {
    let mut b = DesignBuilder::new("staged");
    let input = b.segment("input", 512, 8).unwrap();
    let scratch = b.segment("scratch", 512, 8).unwrap();
    let work = b.segment("work", 512, 8).unwrap();
    let output = b.segment("output", 512, 8).unwrap();

    let mut g = TaskGraph::new();
    let t_load = g
        .task("load", 4, vec![input], vec![scratch], vec![])
        .unwrap();
    let t_transform = g
        .task("transform", 6, vec![scratch], vec![work], vec![t_load])
        .unwrap();
    let _t_reduce: TaskId = g
        .task("reduce", 3, vec![work], vec![output], vec![t_transform])
        .unwrap();

    let schedule = g.schedule_asap().unwrap();
    assert_eq!(schedule.makespan, 13);
    let lifetimes = g.lifetimes(&schedule, 4).unwrap();
    for (i, lt) in lifetimes.iter().enumerate() {
        b.lifetime(SegmentId(i), *lt);
    }
    b.build().unwrap()
}

#[test]
fn taskgraph_lifetimes_enable_overlap() {
    let design = build_design_with_taskgraph();
    let scratch = design.find("scratch").unwrap();
    let output = design.find("output").unwrap();
    let work = design.find("work").unwrap();
    // Scratch dies when transform finishes (step 10); output is born at
    // step 10: they may share storage.
    assert!(!design.conflicts().conflicts(scratch, output));
    // Scratch and work overlap during transform.
    assert!(design.conflicts().conflicts(scratch, work));
}

#[test]
fn overlap_aware_mapping_fits_where_blind_spills() {
    let design = build_design_with_taskgraph();
    // A board with exactly enough on-chip space for three live segments
    // (each 512x8 = 4096 bits, one BlockRAM instance) plus slow off-chip
    // spill space.
    let board = Board::new(
        "tight-onchip",
        vec![
            BankType::new(
                "onchip",
                3,
                2,
                vec![RamConfig::new(4096, 1), RamConfig::new(512, 8)],
                1,
                1,
                Placement::OnChip,
            )
            .unwrap(),
            gmm_arch::devices::off_chip::zbt_sram("spill", 4, 262_144, 32),
        ],
    )
    .unwrap();

    let blind = Mapper::new(MapperOptions::new())
        .map(&design, &board)
        .unwrap();
    let mut opts = MapperOptions::new();
    opts.overlap_aware = true;
    let aware = Mapper::new(opts).map(&design, &board).unwrap();

    let w = CostWeights::default();
    assert!(
        aware.cost.weighted(&w) <= blind.cost.weighted(&w),
        "lifetime knowledge can only help"
    );
    // All mappings still validate under the base (conflict-aware) rules.
    assert!(validate_detailed(&design, &board, &aware.detailed).is_empty());
    assert!(validate_detailed(&design, &board, &blind.detailed).is_empty());
}

#[test]
fn simulated_behaviour_matches_schedule_traffic() {
    use gmm_sim::{simulate_mapping, Trace};
    let design = build_design_with_taskgraph();
    let board = Board::prototyping("XCV300", 2).unwrap();
    let out = Mapper::new(MapperOptions::new())
        .map(&design, &board)
        .unwrap();
    let trace = Trace::from_profiles(&design);
    let report = simulate_mapping(&design, &board, &out.detailed, &trace).unwrap();
    // Every segment of the staged pipeline sees traffic.
    for s in &report.per_segment {
        assert!(s.accesses > 0);
    }
}
