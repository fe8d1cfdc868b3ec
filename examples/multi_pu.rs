//! Multi-processing-unit mapping — the paper's §6 extension in action.
//!
//! A board with two processing units and four bank groups arranged in a
//! linear array: each PU is close to some banks and far from others. The
//! mapper places each PU's segments on nearby banks; swapping ownership
//! visibly degrades the pin-delay cost.
//!
//! ```sh
//! cargo run --example multi_pu
//! ```

use fpga_memmap::prelude::*;
use gmm_core::multipu::{map_multi_pu, MultiPuBoard, PuId, PuOwnership};

fn main() {
    // Four identical on-chip bank groups.
    let mk = |name: &str| {
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
    let board = Board::new(
        "linear-array",
        vec![mk("bank0"), mk("bank1"), mk("bank2"), mk("bank3")],
    )
    .unwrap();
    // Two PUs on a linear floorplan, 4 extra pins per hop.
    let mpu = MultiPuBoard::linear_array(board.clone(), 2, 4).unwrap();
    println!("board: {} with {} PUs", board.name, mpu.num_pus());
    for u in 0..mpu.num_pus() {
        let row: Vec<u32> = board.iter().map(|(t, _)| mpu.pins(PuId(u), t)).collect();
        println!("  PU{u} pin distances to bank types: {row:?}");
    }

    // A design whose segments belong to the two PUs.
    let mut b = DesignBuilder::new("dual-pu-design");
    let mut owners = Vec::new();
    for i in 0..10 {
        b.segment(format!("pu{}_seg{}", i % 2, i / 2), 200 + 40 * i, 8)
            .unwrap();
        owners.push(PuId((i % 2) as usize));
    }
    let design = b.build().unwrap();
    let ownership = PuOwnership(owners);

    let mapper = Mapper::new(MapperOptions::new());
    let aligned = map_multi_pu(&mapper, &design, &mpu, &ownership).unwrap();
    println!("\nPU-aware assignment:");
    for (id, seg) in design.iter() {
        println!(
            "  {:<12} (PU{}) -> {}",
            seg.name,
            ownership.0[id.0].0,
            board.bank(aligned.global.type_of[id.0]).name
        );
    }
    println!(
        "pin-delay cost: {:.0}  (latency {:.0})",
        aligned.cost.pin_delay, aligned.cost.latency
    );

    // What would this *same placement* cost if the logic partition were
    // swapped (each segment suddenly accessed from the other PU)? The
    // distance terms blow up — which is exactly why the mapper must know
    // the ownership.
    let swapped = PuOwnership(
        ownership
            .0
            .iter()
            .map(|p| PuId(1 - p.0))
            .collect::<Vec<_>>(),
    );
    let pre = gmm_core::PreTable::build(&design, &board);
    let swapped_view = gmm_core::CostMatrix::build_with_pins(&design, &board, &pre, |d, t| {
        mpu.pins(swapped.0[d.0], t)
    });
    let mis_cost = gmm_core::cost::assignment_cost(&swapped_view, &aligned.global.type_of);
    println!(
        "\nsame placement, swapped logic partition: pin-delay cost {:.0} (vs {:.0} aligned)",
        mis_cost.pin_delay, aligned.cost.pin_delay
    );
    assert!(
        mis_cost.pin_delay > aligned.cost.pin_delay,
        "misaligned ownership must pay distance"
    );
    assert!(validate_detailed(&design, &board, &aligned.detailed).is_empty());
    println!("mapping validates; segments follow their owning PU.");
}
