//! Allocation explorer: reproduce the paper's Figure 2 worked example and
//! Table 2 enumeration, then render the actual detailed placement the
//! mapper produces for the 55x17 structure.
//!
//! ```sh
//! cargo run --example allocation_explorer
//! ```

use fpga_memmap::prelude::*;
use gmm_core::detailed::fragment_segment;
use gmm_core::preprocess::{enumerate_port_allocations, preprocess_pair};

fn main() {
    // The Figure 2 bank type: 3 ports, configurations 128x1..16x8.
    let bank = BankType::new(
        "fig2-bank",
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

    // --- Figure 2: pre-processing of a 55x17 structure -----------------
    let e = preprocess_pair(&bank, 55, 17);
    println!("Figure 2 — 55x17 structure on the 3-port multi-config bank");
    println!("  alpha = {}, beta = {}", e.split.alpha, e.split.beta);
    println!(
        "  FP={} WP={} DP={} WDP={}  =>  CP={} ports, CW={}, CD={}",
        e.fp,
        e.wp,
        e.dp,
        e.wdp,
        e.cp(),
        e.cw,
        e.cd
    );
    assert_eq!((e.fp, e.wp, e.dp, e.wdp), (18, 3, 4, 1), "paper's numbers");

    // The fragment decomposition behind those numbers.
    println!("\n  fragments (the Figure 2 rectangle):");
    let frags = fragment_segment(&bank, SegmentId(0), 55, 17);
    for f in &frags {
        println!(
            "    cfg {:<7} words[{:>2}..{:>2}) bits[{:>2}..{:>2}) reserve {:>3} words, {} port(s)",
            f.config.to_string(),
            f.word_offset,
            f.word_offset + f.used_depth,
            f.bit_offset,
            (f.bit_offset + f.config.width).min(17),
            f.reserved_depth,
            f.ep
        );
    }

    // --- Table 2: allocation options of a 3-port 16-word bank ----------
    println!("\nTable 2 — space allocations of a 3-port, 16-word bank");
    println!("  (rows the Figure-3 accounting rejects are marked)");
    let mut accepted = 0;
    let mut rejected = 0;
    for opt in enumerate_port_allocations(3, 16) {
        let mark = if opt.accepted {
            accepted += 1;
            "   "
        } else {
            rejected += 1;
            "  X"
        };
        println!(
            "  {:>2} {:>2} {:>2}{mark}",
            opt.words[0], opt.words[1], opt.words[2]
        );
    }
    println!("  {accepted} accepted, {rejected} rejected (e.g. 8/8/0: two half-banks each need 2 of 3 ports)");

    // --- The mapper's actual placement ---------------------------------
    let mut builder = DesignBuilder::new("fig2-design");
    builder.segment("ds_55x17", 55, 17).unwrap();
    let design = builder.build().unwrap();
    let board = Board::new("fig2-board", vec![bank]).unwrap();
    let outcome = Mapper::new(MapperOptions::new())
        .map(&design, &board)
        .expect("12 instances suffice");
    println!("\nDetailed placement chosen by the mapper:");
    let mut by_instance: std::collections::BTreeMap<u32, Vec<String>> = Default::default();
    for f in &outcome.detailed.fragments {
        by_instance.entry(f.instance).or_default().push(format!(
            "{} @word{} ports{:?}",
            f.config, f.base_word, f.ports
        ));
    }
    for (inst, items) in by_instance {
        println!("  instance {:>2}: {}", inst, items.join(" | "));
    }
    assert!(validate_detailed(&design, &board, &outcome.detailed).is_empty());
    println!(
        "\n{} fragments on {} instances — all power-of-two aligned (no address adders)",
        outcome.detailed.fragments.len(),
        outcome.detailed.instances_used()
    );
}
