//! Image-processing pipeline: map a 2-D convolution and a histogram
//! equalizer onto a hierarchical board, then *simulate* both a good and a
//! deliberately bad mapping to see why mapping quality matters — the
//! paper's motivating scenario ("the performance of these data-intensive
//! applications is heavily affected by the quality of the memory
//! assignment").
//!
//! ```sh
//! cargo run --release --example image_pipeline
//! ```

use fpga_memmap::prelude::*;
use fpga_memmap::workloads::kernels;
use gmm_core::global::NoGood;

fn main() {
    // A three-level hierarchy with enough off-chip ports that even the
    // adversarial all-off-chip mapping below is feasible (remember: ports
    // are never shared between segments).
    let board = BoardBuilder::new("XCV1000 pipeline board")
        .device("XCV1000")
        .expect("catalog device")
        .bank(gmm_arch::devices::off_chip::zbt_sram(
            "ZBT SRAM", 4, 262_144, 32,
        ))
        .bank(gmm_arch::devices::off_chip::bus_sram(
            "Bus SRAM", 4, 524_288, 16,
        ))
        .bank(gmm_arch::devices::off_chip::dram("DRAM", 2, 1 << 20, 64))
        .build()
        .expect("valid board");
    println!("board: {} ({} bank types)", board.name, board.num_types());

    for design in [
        kernels::conv2d(128, 128, 3),
        kernels::histogram(128, 128, 256),
    ] {
        println!(
            "\n=== {} ({} segments) ===",
            design.name(),
            design.num_segments()
        );

        // The mapper's (cost-optimal) assignment; overlap-aware since the
        // kernels carry lifetimes.
        let mut opts = MapperOptions::new();
        opts.overlap_aware = true;
        let mapper = Mapper::new(opts);
        let good = mapper.map(&design, &board).expect("fits the board");

        for (id, seg) in design.iter() {
            println!(
                "  {:<18} {:>9} bits -> {}",
                seg.name,
                seg.bits(),
                board.bank(good.global.type_of[id.0]).name
            );
        }

        // An adversarial mapping: ban the on-chip BlockRAM for every
        // segment, forcing everything off-chip.
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let onchip = gmm_arch::BankTypeId(0);
        let no_goods: Vec<NoGood> = design
            .iter()
            .map(|(id, _)| NoGood {
                bank_type: onchip,
                segments: vec![id],
            })
            .collect();
        let forced = gmm_core::solve_global(
            &design,
            &board,
            &pre,
            &matrix,
            &CostWeights::default(),
            &SolverBackend::default(),
            true,
            &no_goods,
        )
        .expect("off-chip capacity suffices");
        let forced_detailed =
            gmm_core::map_detailed(&design, &board, &pre, &forced).expect("packs off-chip");

        // Replay the profile-derived trace on both mappings.
        let trace = Trace::from_profiles(&design);
        let fast = simulate_mapping(&design, &board, &good.detailed, &trace).unwrap();
        let slow = simulate_mapping(&design, &board, &forced_detailed, &trace).unwrap();

        println!(
            "\n  {:<22} {:>14} {:>14}",
            "", "optimal map", "all off-chip"
        );
        println!(
            "  {:<22} {:>14} {:>14}",
            "total latency (cy)", fast.total_latency, slow.total_latency
        );
        println!(
            "  {:<22} {:>14} {:>14}",
            "makespan (cy)", fast.makespan, slow.makespan
        );
        println!(
            "  {:<22} {:>14} {:>14}",
            "pin crossings", fast.pin_crossings, slow.pin_crossings
        );
        let speedup = slow.total_latency as f64 / fast.total_latency as f64;
        println!("  => the ILP mapping is {speedup:.2}x faster in simulation");
        assert!(
            fast.total_latency <= slow.total_latency,
            "cost-optimal mapping must not simulate slower"
        );
    }
}
