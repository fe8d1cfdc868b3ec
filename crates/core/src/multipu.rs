//! Multi-processing-unit extension (paper §6, listed as ongoing work).
//!
//! The base model assumes one processing unit, "all logic areas …
//! equidistant from each physical bank". With several PUs, the pin
//! distance between a bank type and the logic *using* a segment depends
//! on which PU owns that segment. This module generalizes the §4.1.3 pin
//! terms: segment `d` owned by PU `u` pays `pins(u, t)` instead of `T_t`,
//! everything else (pre-processing, constraints, detailed mapping) is
//! unchanged — exactly the extension shape the paper sketches.

use crate::cost::CostMatrix;
#[cfg(test)]
use crate::cost::CostWeights;
use crate::global::MapError;
use crate::pipeline::{Mapper, MappingOutcome};
use crate::preprocess::PreTable;
use gmm_arch::{BankTypeId, Board};
use gmm_design::{Design, SegmentId};
use serde::{Deserialize, Serialize};

/// Index of a processing unit on the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PuId(pub usize);

/// A board with several processing units at different pin distances from
/// each bank type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiPuBoard {
    pub board: Board,
    /// `pins[u][t]`: pins traversed between PU `u` and bank type `t`.
    pins: Vec<Vec<u32>>,
}

/// Errors building a multi-PU board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiPuError {
    /// At least one PU is required.
    NoPus,
    /// Each PU needs a pin entry per bank type.
    BadMatrix { pu: usize, got: usize, want: usize },
}

impl std::fmt::Display for MultiPuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiPuError::NoPus => write!(f, "multi-PU board needs at least one PU"),
            MultiPuError::BadMatrix { pu, got, want } => {
                write!(f, "PU {pu} has {got} pin entries, board has {want} types")
            }
        }
    }
}

impl std::error::Error for MultiPuError {}

impl MultiPuBoard {
    /// Build from an explicit pin matrix `pins[u][t]`.
    pub fn new(board: Board, pins: Vec<Vec<u32>>) -> Result<Self, MultiPuError> {
        if pins.is_empty() {
            return Err(MultiPuError::NoPus);
        }
        for (u, row) in pins.iter().enumerate() {
            if row.len() != board.num_types() {
                return Err(MultiPuError::BadMatrix {
                    pu: u,
                    got: row.len(),
                    want: board.num_types(),
                });
            }
        }
        Ok(MultiPuBoard { board, pins })
    }

    /// The single-PU degenerate case: every distance is the bank's own
    /// `T_t` (the base model).
    pub fn single(board: Board) -> Self {
        let row: Vec<u32> = board
            .bank_types()
            .iter()
            .map(|b| b.pins_traversed())
            .collect();
        MultiPuBoard {
            board,
            pins: vec![row],
        }
    }

    /// A symmetric `n`-PU board where every PU sees the bank's base pin
    /// count plus `hop_penalty * |u - home(t)|`, with bank types assigned
    /// round-robin home PUs — a simple linear-array floorplan model.
    pub fn linear_array(board: Board, n: usize, hop_penalty: u32) -> Result<Self, MultiPuError> {
        if n == 0 {
            return Err(MultiPuError::NoPus);
        }
        let pins = (0..n)
            .map(|u| {
                board
                    .iter()
                    .map(|(t, bank)| {
                        let home = t.0 % n;
                        let dist = (u as i64 - home as i64).unsigned_abs() as u32;
                        bank.pins_traversed() + hop_penalty * dist
                    })
                    .collect()
            })
            .collect();
        Ok(MultiPuBoard { board, pins })
    }

    #[inline]
    pub fn num_pus(&self) -> usize {
        self.pins.len()
    }

    /// Pins traversed between PU `u` and bank type `t`.
    #[inline]
    pub fn pins(&self, u: PuId, t: BankTypeId) -> u32 {
        self.pins[u.0][t.0]
    }
}

/// Segment → owning-PU assignment (who accesses the segment).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PuOwnership(pub Vec<PuId>);

impl PuOwnership {
    /// Round-robin ownership (a reasonable default when the real logic
    /// partition is unknown).
    pub fn round_robin(num_segments: usize, num_pus: usize) -> Self {
        PuOwnership((0..num_segments).map(|d| PuId(d % num_pus)).collect())
    }
}

/// Map a design on a multi-PU board: identical constraints, PU-aware pin
/// costs.
pub fn map_multi_pu(
    mapper: &Mapper,
    design: &Design,
    mpu: &MultiPuBoard,
    owner: &PuOwnership,
) -> Result<MappingOutcome, MapError> {
    assert_eq!(
        owner.0.len(),
        design.num_segments(),
        "one owning PU per segment"
    );
    let pre = PreTable::build(design, &mpu.board);
    let matrix = CostMatrix::build_with_pins(design, &mpu.board, &pre, |d: SegmentId, t| {
        mpu.pins(owner.0[d.0], t)
    });
    mapper.map_with(design, &mpu.board, &pre, &matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MapperOptions;
    use gmm_arch::{BankType, Placement, RamConfig};
    use gmm_design::DesignBuilder;

    fn two_type_board() -> Board {
        Board::new(
            "mpu",
            vec![
                BankType::new(
                    "bankA",
                    4,
                    2,
                    vec![RamConfig::new(4096, 1), RamConfig::new(512, 8)],
                    1,
                    1,
                    Placement::OnChip,
                )
                .unwrap(),
                BankType::new(
                    "bankB",
                    4,
                    2,
                    vec![RamConfig::new(4096, 1), RamConfig::new(512, 8)],
                    1,
                    1,
                    Placement::OnChip,
                )
                .unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn matrix_validation() {
        let b = two_type_board();
        assert!(matches!(
            MultiPuBoard::new(b.clone(), vec![]),
            Err(MultiPuError::NoPus)
        ));
        assert!(matches!(
            MultiPuBoard::new(b.clone(), vec![vec![0]]),
            Err(MultiPuError::BadMatrix { .. })
        ));
        assert!(MultiPuBoard::new(b, vec![vec![0, 4], vec![4, 0]]).is_ok());
    }

    #[test]
    fn single_pu_matches_base_model() {
        let board = two_type_board();
        let mpu = MultiPuBoard::single(board.clone());
        assert_eq!(mpu.num_pus(), 1);
        assert_eq!(mpu.pins(PuId(0), BankTypeId(0)), 0);

        let mut b = DesignBuilder::new("d");
        for i in 0..4 {
            b.segment(format!("s{i}"), 200, 8).unwrap();
        }
        let design = b.build().unwrap();
        let mapper = Mapper::new(MapperOptions::new());
        let base = mapper.map(&design, &board).unwrap();
        let multi = map_multi_pu(&mapper, &design, &mpu, &PuOwnership::round_robin(4, 1)).unwrap();
        let w = CostWeights::default();
        assert!((base.cost.weighted(&w) - multi.cost.weighted(&w)).abs() < 1e-9);
    }

    #[test]
    fn segments_gravitate_to_their_pu() {
        // Two identical bank types; PU0 is next to bankA, PU1 next to
        // bankB. Segments owned by PU0 must land on bankA and vice versa.
        let board = two_type_board();
        let mpu = MultiPuBoard::new(board, vec![vec![0, 6], vec![6, 0]]).unwrap();
        let mut b = DesignBuilder::new("d");
        for i in 0..6 {
            b.segment(format!("s{i}"), 200, 8).unwrap();
        }
        let design = b.build().unwrap();
        let owner = PuOwnership(vec![PuId(0), PuId(0), PuId(0), PuId(1), PuId(1), PuId(1)]);
        let mapper = Mapper::new(MapperOptions::new());
        let out = map_multi_pu(&mapper, &design, &mpu, &owner).unwrap();
        for d in 0..6 {
            let expect = if d < 3 { 0 } else { 1 };
            assert_eq!(
                out.global.type_of[d].0, expect,
                "segment {d} should sit next to its PU"
            );
        }
    }

    #[test]
    fn linear_array_distances() {
        let board = two_type_board();
        let mpu = MultiPuBoard::linear_array(board, 3, 2).unwrap();
        assert_eq!(mpu.num_pus(), 3);
        // bankA home = PU0, bankB home = PU1.
        assert_eq!(mpu.pins(PuId(0), BankTypeId(0)), 0);
        assert_eq!(mpu.pins(PuId(2), BankTypeId(0)), 4);
        assert_eq!(mpu.pins(PuId(1), BankTypeId(1)), 0);
        assert_eq!(mpu.pins(PuId(0), BankTypeId(1)), 2);
    }

    #[test]
    fn ownership_round_robin() {
        let o = PuOwnership::round_robin(5, 2);
        assert_eq!(o.0, vec![PuId(0), PuId(1), PuId(0), PuId(1), PuId(0)]);
    }
}
