//! Cross-validation of the ILP cost model against the cycle simulator:
//! if the cost model says mapping A is cheaper than mapping B (in pure
//! latency terms), the simulator must agree on the replayed trace.

use fpga_memmap::prelude::*;
use gmm_core::global::NoGood;
use gmm_core::{map_detailed, solve_global, CostMatrix, PreTable};
use gmm_sim::Trace;

fn world() -> (Design, Board) {
    let mut b = DesignBuilder::new("agreement");
    b.segment("hot_small", 128, 8).unwrap();
    b.segment("warm_mid", 1024, 16).unwrap();
    b.segment("cold_big", 8192, 32).unwrap();
    let design = b.build().unwrap();
    let board = Board::hierarchical("XCV1000").unwrap();
    (design, board)
}

/// Enumerate several feasible global assignments by banning types, and
/// check cost-vs-simulation ordering across all pairs.
#[test]
fn latency_cost_ordering_matches_simulation() {
    let (design, board) = world();
    let pre = PreTable::build(&design, &board);
    let matrix = CostMatrix::build(&design, &board, &pre);
    let weights = CostWeights::latency_only();
    let backend = SolverBackend::default();

    // Assignment variants: optimal, each segment individually forced off
    // the on-chip type, everything forced off-chip.
    let onchip = gmm_arch::BankTypeId(0);
    let mut variants: Vec<Vec<NoGood>> = vec![vec![]];
    for (id, _) in design.iter() {
        variants.push(vec![NoGood {
            bank_type: onchip,
            segments: vec![id],
        }]);
    }
    variants.push(
        design
            .iter()
            .map(|(id, _)| NoGood {
                bank_type: onchip,
                segments: vec![id],
            })
            .collect(),
    );

    let trace = Trace::from_profiles(&design);
    let mut results: Vec<(f64, u64)> = Vec::new();
    for no_goods in &variants {
        let Ok(global) = solve_global(
            &design, &board, &pre, &matrix, &weights, &backend, false, no_goods,
        ) else {
            continue;
        };
        let detailed = map_detailed(&design, &board, &pre, &global).unwrap();
        let report = simulate_mapping(&design, &board, &detailed, &trace).unwrap();
        results.push((global.cost.latency, report.total_latency));
    }
    assert!(results.len() >= 3, "need several variants to compare");

    // Pairwise: strictly cheaper cost implies no-slower simulation; equal
    // costs imply equal simulated latency (same latency classes).
    for (i, &(ca, sa)) in results.iter().enumerate() {
        for &(cb, sb) in results.iter().skip(i + 1) {
            if (ca - cb).abs() < 1e-9 {
                assert_eq!(sa, sb, "equal costs must simulate equally");
            } else if ca < cb {
                assert!(sa <= sb, "cost {ca} < {cb} but sim {sa} > {sb}");
            } else {
                assert!(sb <= sa, "cost {cb} < {ca} but sim {sb} > {sa}");
            }
        }
    }

    // The unconstrained optimum must be the simulation's best, too.
    let (best_cost, best_sim) = results[0];
    for &(c, s) in &results[1..] {
        assert!(best_cost <= c + 1e-9);
        assert!(best_sim <= s);
    }
}

/// The latency cost model is *exact* for contention-free replays: the
/// simulator's total latency equals the model's latency term when every
/// segment has its own ports and the pin penalty is folded in.
#[test]
fn latency_cost_is_exact_without_contention() {
    let (design, board) = world();
    let out = Mapper::new(MapperOptions::new())
        .map(&design, &board)
        .unwrap();
    let trace = Trace::from_profiles(&design);
    let report = simulate_mapping(&design, &board, &out.detailed, &trace).unwrap();
    // Model: sum over segments of reads*RL + writes*WL, plus pins/2 per
    // access (the machine folds hop cycles into each access).
    let mut expect = 0u64;
    for (id, _) in design.iter() {
        let t = out.global.type_of[id.0];
        let bank = board.bank(t);
        let p = design.profile(id);
        let hop = (bank.pins_traversed() / 2) as u64;
        expect += p.reads * (bank.read_latency as u64 + hop)
            + p.writes * (bank.write_latency as u64 + hop);
    }
    assert_eq!(
        report.total_latency, expect,
        "simulated latency must equal the analytic model"
    );
}
