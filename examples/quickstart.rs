//! Quickstart: map a small design onto a Virtex prototyping board and
//! inspect the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use fpga_memmap::prelude::*;

fn main() {
    // 1. Describe the application's data structures (depth x width).
    let mut builder = DesignBuilder::new("quickstart");
    let coeffs = builder.segment("coefficients", 64, 12).unwrap();
    let window = builder.segment("window", 64, 12).unwrap();
    let frame = builder.segment("frame_buffer", 16384, 8).unwrap();
    let scratch = builder.segment("scratch", 55, 17).unwrap(); // the Fig. 2 shape
    let design = builder.build().unwrap();

    // 2. Describe the platform: a Xilinx XCV300 (16 dual-port BlockRAMs)
    //    plus two off-chip ZBT SRAM banks.
    let board = Board::prototyping("XCV300", 2).unwrap();
    println!("board: {}", board.name);
    for (_, bank) in board.iter() {
        println!(
            "  {:<24} {} instances x {} ports, {} bits each, {} pins away",
            bank.name,
            bank.instances,
            bank.ports,
            bank.capacity_bits(),
            bank.pins_traversed()
        );
    }

    // 3. Run the two-phase mapper through the solve-session facade
    //    (global ILP, then detailed placement), bounded to 30 seconds.
    let report = MapRequest::new(design.clone(), board.clone())
        .deadline(std::time::Duration::from_secs(30))
        .execute()
        .expect("engine failure");
    println!(
        "\ntermination: {} in {:?} ({} B&B nodes, {} pivots)",
        report.termination, report.total_time, report.nodes_explored, report.lp_iterations
    );
    assert_eq!(report.termination, Termination::Optimal);
    let outcome = report.outcome.expect("optimal solves carry a mapping");

    // 4. Inspect the global assignment ...
    println!("\nglobal assignment:");
    for (id, seg) in design.iter() {
        let bank = board.bank(outcome.global.type_of[id.0]);
        println!("  {:<16} -> {}", seg.to_string(), bank.name);
    }
    println!(
        "\ncost: latency={:.0} pin-delay={:.0} pin-io={:.0}",
        outcome.cost.latency, outcome.cost.pin_delay, outcome.cost.pin_io
    );

    // ... and the detailed placement.
    println!("\ndetailed fragments:");
    for f in &outcome.detailed.fragments {
        println!(
            "  seg {:<2} type {} inst {:<2} ports {:?} cfg {:<7} base {:<4} ({} words used)",
            f.segment.0,
            f.bank_type.0,
            f.instance,
            f.ports,
            f.config.to_string(),
            f.base_word,
            f.used_depth
        );
    }

    // 5. Everything the mapper produces is machine-checkable.
    let violations = validate_detailed(&design, &board, &outcome.detailed);
    assert!(
        violations.is_empty(),
        "mapper produced violations: {violations:?}"
    );
    println!(
        "\nvalidated: {} fragments across {} instances, 0 violations",
        outcome.detailed.fragments.len(),
        outcome.detailed.instances_used()
    );

    // Silence unused-variable warnings for the ids we only use as labels.
    let _ = (coeffs, window, frame, scratch);
}
