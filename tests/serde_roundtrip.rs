//! Serialization round-trips for every on-disk artifact the CLI reads or
//! writes: boards, designs, detailed mappings, traces, and sim reports.

use fpga_memmap::prelude::*;
use fpga_memmap::workloads::{kernels, table3_board, table3_instance, TABLE3};
use gmm_sim::Trace;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn board_roundtrips() {
    for board in [
        Board::prototyping("XCV1000", 4).unwrap(),
        Board::hierarchical("EPF10K100").unwrap(),
        table3_board(&TABLE3[6]),
    ] {
        let back: Board = roundtrip(&board);
        assert_eq!(board, back);
        assert_eq!(board.total_ports(), back.total_ports());
    }
}

#[test]
fn design_roundtrips_with_lifetimes_and_profiles() {
    for design in [
        kernels::fft(512),
        kernels::histogram(64, 64, 128),
        kernels::matmul(32, 4),
    ] {
        let back: Design = roundtrip(&design);
        assert_eq!(design, back);
        // Conflict semantics survive.
        for i in 0..design.num_segments() {
            for j in 0..design.num_segments() {
                let (a, b) = (SegmentId(i), SegmentId(j));
                assert_eq!(
                    design.conflicts().conflicts(a, b),
                    back.conflicts().conflicts(a, b)
                );
            }
        }
    }
}

#[test]
fn mapping_roundtrips_and_revalidates() {
    let (design, board, _) = table3_instance(1);
    let out = Mapper::new(MapperOptions::new())
        .map(&design, &board)
        .unwrap();
    let back: DetailedMapping = roundtrip(&out.detailed);
    assert_eq!(out.detailed, back);
    // A deserialized mapping still validates against the same world.
    assert!(validate_detailed(&design, &board, &back).is_empty());
}

#[test]
fn trace_and_report_roundtrip() {
    let design = kernels::fir(8, 64);
    let trace = Trace::from_profiles(&design);
    let back: Trace = roundtrip(&trace);
    assert_eq!(trace, back);

    let board = Board::prototyping("XCV300", 1).unwrap();
    let out = Mapper::new(MapperOptions::new())
        .map(&design, &board)
        .unwrap();
    let report = simulate_mapping(&design, &board, &out.detailed, &trace).unwrap();
    let report_back: gmm_sim::SimReport = roundtrip(&report);
    assert_eq!(report, report_back);
}
