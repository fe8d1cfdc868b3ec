//! The objective model of §4.1.3: latency cost, pin-delay cost, and
//! pin-I/O cost, combined with normalization weights `α_i`.
//!
//! The paper writes the latency and pin-delay terms with `D_d` as the
//! access-count proxy under the stated assumption "the number of reads is
//! equal to the number of writes for every data structure". We keep the
//! general form driven by each segment's [`gmm_design::AccessProfile`]
//! (whose default is exactly `reads = writes = D_d`), so profile-aware
//! mappings come for free:
//!
//! * latency  = `reads_d * RL_t + writes_d * WL_t`
//! * pin delay = `(reads_d + writes_d) * T_t`
//! * pin I/O  = `(ceil(log2(CD_dt)) + CW_dt) * T_t`
//!
//! With the default profile these equal the paper's terms up to a constant
//! factor of 2 on pin delay, which the weight `α_2` absorbs.

use crate::preprocess::{PreEntry, PreTable};
use gmm_arch::{BankType, BankTypeId, Board};
use gmm_design::{Design, SegmentId};
use serde::{Deserialize, Serialize};

/// Normalization weights `α_1..α_3` of the cost function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    pub latency: f64,
    pub pin_delay: f64,
    pub pin_io: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Latency dominates; pin terms act as interconnect tie-breakers.
        CostWeights {
            latency: 1.0,
            pin_delay: 0.25,
            pin_io: 0.05,
        }
    }
}

impl CostWeights {
    /// Pure-latency objective (useful in tests and ablations).
    pub fn latency_only() -> Self {
        CostWeights {
            latency: 1.0,
            pin_delay: 0.0,
            pin_io: 0.0,
        }
    }
}

/// Cost components of assigning one segment to one bank type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairCost {
    pub latency: f64,
    pub pin_delay: f64,
    pub pin_io: f64,
}

impl PairCost {
    /// Weighted scalar cost.
    #[inline]
    pub fn weighted(&self, w: &CostWeights) -> f64 {
        self.latency * w.latency + self.pin_delay * w.pin_delay + self.pin_io * w.pin_io
    }
}

/// `ceil(log2(x))` for `x >= 1` — address bits of the consumed depth.
#[inline]
pub fn ceil_log2(x: u64) -> u32 {
    debug_assert!(x >= 1);
    64 - (x - 1).leading_zeros()
    // For x = 1 this yields 0 (one word needs no address bits).
}

/// Compute the three §4.1.3 cost components for one pair.
pub fn pair_cost(design: &Design, d: SegmentId, bank: &BankType, pre: &PreEntry) -> PairCost {
    let profile = design.profile(d);
    let t_pins = bank.pins_traversed() as f64;
    let latency = profile.latency_cycles(bank.read_latency, bank.write_latency) as f64;
    let pin_delay = profile.total() as f64 * t_pins;
    let pin_io = (ceil_log2(pre.cd.max(1)) as f64 + pre.cw as f64) * t_pins;
    PairCost {
        latency,
        pin_delay,
        pin_io,
    }
}

/// Full cost matrix over (segment, type) pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostMatrix {
    costs: Vec<Vec<PairCost>>,
}

impl CostMatrix {
    pub fn build(design: &Design, board: &Board, pre: &PreTable) -> Self {
        Self::build_with_pins(design, board, pre, |_, t| board.bank(t).pins_traversed())
    }

    /// Build with a per-(segment, type) pin-traversal override — the hook
    /// the multi-processing-unit extension uses (paper §6: "all logic
    /// areas are assumed equidistant from each physical bank; the model
    /// needs to be enhanced to support multiple processing units").
    pub fn build_with_pins(
        design: &Design,
        board: &Board,
        pre: &PreTable,
        pins: impl Fn(SegmentId, BankTypeId) -> u32,
    ) -> Self {
        let costs = design
            .iter()
            .map(|(d, _)| {
                board
                    .iter()
                    .map(|(t, bank)| {
                        let e = pre.entry(d, t);
                        let profile = design.profile(d);
                        let t_pins = pins(d, t) as f64;
                        PairCost {
                            latency: profile.latency_cycles(bank.read_latency, bank.write_latency)
                                as f64,
                            pin_delay: profile.total() as f64 * t_pins,
                            pin_io: (ceil_log2(e.cd.max(1)) as f64 + e.cw as f64) * t_pins,
                        }
                    })
                    .collect()
            })
            .collect();
        CostMatrix { costs }
    }

    #[inline]
    pub fn pair(&self, d: SegmentId, t: BankTypeId) -> &PairCost {
        &self.costs[d.0][t.0]
    }
}

/// Aggregate cost of a complete type assignment.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    pub latency: f64,
    pub pin_delay: f64,
    pub pin_io: f64,
}

impl CostBreakdown {
    pub fn weighted(&self, w: &CostWeights) -> f64 {
        self.latency * w.latency + self.pin_delay * w.pin_delay + self.pin_io * w.pin_io
    }

    pub fn add(&mut self, pair: &PairCost) {
        self.latency += pair.latency;
        self.pin_delay += pair.pin_delay;
        self.pin_io += pair.pin_io;
    }
}

/// Evaluate a full assignment (segment -> bank type) against the matrix.
pub fn assignment_cost(matrix: &CostMatrix, assignment: &[BankTypeId]) -> CostBreakdown {
    let mut total = CostBreakdown::default();
    for (d, &t) in assignment.iter().enumerate() {
        total.add(matrix.pair(SegmentId(d), t));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_arch::{BankType, Placement, RamConfig};
    use gmm_design::DesignBuilder;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(56), 6);
        assert_eq!(ceil_log2(1 << 20), 20);
    }

    fn board() -> gmm_arch::Board {
        gmm_arch::Board::new(
            "b",
            vec![
                BankType::new(
                    "onchip",
                    8,
                    2,
                    vec![RamConfig::new(4096, 1), RamConfig::new(512, 8)],
                    1,
                    1,
                    Placement::OnChip,
                )
                .unwrap(),
                BankType::new(
                    "offchip",
                    2,
                    1,
                    vec![RamConfig::new(65536, 32)],
                    2,
                    2,
                    Placement::DirectOffChip,
                )
                .unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn onchip_has_no_pin_costs() {
        let mut b = DesignBuilder::new("t");
        let s = b.segment("s", 100, 8).unwrap();
        let design = b.build().unwrap();
        let board = board();
        let pre = crate::preprocess::PreTable::build(&design, &board);
        let m = CostMatrix::build(&design, &board, &pre);
        let on = m.pair(s, BankTypeId(0));
        assert_eq!(on.pin_delay, 0.0);
        assert_eq!(on.pin_io, 0.0);
        // Default profile: 100 reads + 100 writes, 1-cycle each way.
        assert_eq!(on.latency, 200.0);
    }

    #[test]
    fn offchip_pin_terms() {
        let mut b = DesignBuilder::new("t");
        let s = b.segment("s", 100, 8).unwrap();
        let design = b.build().unwrap();
        let board = board();
        let pre = crate::preprocess::PreTable::build(&design, &board);
        let m = CostMatrix::build(&design, &board, &pre);
        let off = m.pair(s, BankTypeId(1));
        // latency: 100*2 + 100*2 = 400.
        assert_eq!(off.latency, 400.0);
        // pin delay: 200 accesses * 2 pins.
        assert_eq!(off.pin_delay, 400.0);
        // pin io: (ceil(log2(CD)) + CW) * 2; CD=128 (100 rounded), CW=32.
        let e = pre.entry(s, BankTypeId(1));
        assert_eq!(e.cd, 128);
        assert_eq!(e.cw, 32);
        assert_eq!(off.pin_io, (7.0 + 32.0) * 2.0);
    }

    #[test]
    fn weighted_combination() {
        let pc = PairCost {
            latency: 10.0,
            pin_delay: 4.0,
            pin_io: 2.0,
        };
        let w = CostWeights {
            latency: 1.0,
            pin_delay: 0.5,
            pin_io: 0.25,
        };
        assert_eq!(pc.weighted(&w), 12.5);
    }

    #[test]
    fn assignment_cost_sums_pairs() {
        let mut b = DesignBuilder::new("t");
        let s1 = b.segment("a", 10, 8).unwrap();
        let s2 = b.segment("b", 20, 8).unwrap();
        let design = b.build().unwrap();
        let board = board();
        let pre = crate::preprocess::PreTable::build(&design, &board);
        let m = CostMatrix::build(&design, &board, &pre);
        let total = assignment_cost(&m, &[BankTypeId(0), BankTypeId(0)]);
        let a = m.pair(s1, BankTypeId(0));
        let c = m.pair(s2, BankTypeId(0));
        assert_eq!(total.latency, a.latency + c.latency);
    }
}
