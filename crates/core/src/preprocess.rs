//! ILP pre-processing (paper §4.1.1).
//!
//! For every (data structure `d`, bank type `t`) pair the global mapper
//! needs three numbers computed up front:
//!
//! * **`CP_dt`** — total ports of type `t` consumed if `d` is assigned to
//!   it, split into the four components of Figure 2: fully-used instances
//!   (`FP`), the width-remainder column (`WP`), the depth-remainder row
//!   (`DP`), and the corner (`WDP`);
//! * **`CW_dt`** — the "ceiling" width actually occupied;
//! * **`CD_dt`** — the "ceiling" depth actually occupied (depth remainders
//!   round up to a power of two so that fragment base addresses need no
//!   offset adders — Figure 3).
//!
//! The fractional-port helper [`consumed_ports`] reproduces Figure 3
//! exactly, including its documented conservatism for banks with more than
//! two ports (the `(8, 8, 0)` rejection of Table 2).

use gmm_arch::{BankType, BankTypeId, Board, RamConfig};
use gmm_design::{Design, SegmentId};
use serde::{Deserialize, Serialize};

/// Round up to the next power of two (`round(d, pow(2))` in Figure 3);
/// zero stays zero.
#[inline]
pub fn round_pow2(d: u32) -> u32 {
    if d == 0 {
        0
    } else {
        d.next_power_of_two()
    }
}

/// Figure 3: fractional port consumption of a fragment of `frag_depth`
/// words placed in a bank of `bank_depth` words with `ports` ports.
///
/// The fragment depth is rounded to a power of two, the occupied fraction
/// of the instance computed, and the port count taken as
/// `ceil(fraction * ports)`. The result is capped at `ports` (a fragment
/// can never need more ports than the instance has; the cap only engages
/// for non-power-of-two bank depths, which Table 1 devices never have).
#[inline]
pub fn consumed_ports(frag_depth: u32, bank_depth: u32, ports: u32) -> u32 {
    debug_assert!(bank_depth > 0 && ports > 0);
    if frag_depth == 0 {
        return 0;
    }
    let rounded = round_pow2(frag_depth) as u64;
    // ceil(rounded / bank_depth * ports) in exact integer arithmetic.
    let ep = (rounded * ports as u64).div_ceil(bank_depth as u64);
    ep.min(ports as u64) as u32
}

/// The α/β configuration pair of §4.1.1 for a segment width on a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WidthSplit {
    /// α: configuration with the smallest width ≥ the segment width, or
    /// the widest configuration when the segment is wider than all.
    pub alpha: RamConfig,
    /// β: configuration for the width remainder (smallest width ≥
    /// `W_d mod W_α`); equals α when the width divides evenly.
    pub beta: RamConfig,
    /// Columns of full-α-width instances.
    pub full_cols: u32,
    /// Width remainder handled by β (0 when none).
    pub rem_width: u32,
}

/// Pre-processed coefficients of one (segment, bank type) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreEntry {
    /// Ports consumed by fully-utilized instances (`FP_dt`).
    pub fp: u32,
    /// Ports consumed by the width-remainder column (`WP_dt`).
    pub wp: u32,
    /// Ports consumed by the depth-remainder row (`DP_dt`).
    pub dp: u32,
    /// Ports consumed by the corner fragment (`WDP_dt`).
    pub wdp: u32,
    /// Ceiling width `CW_dt`.
    pub cw: u32,
    /// Ceiling depth `CD_dt`.
    pub cd: u64,
    /// Width split (α/β and the column arithmetic).
    pub split: WidthSplit,
    /// Full-depth row chunks (`floor(D_d / D_α)`).
    pub full_rows: u32,
    /// Depth remainder (`D_d mod D_α`).
    pub rem_depth: u32,
}

impl PreEntry {
    /// Total consumed ports `CP_dt = FP + WP + DP + WDP`.
    #[inline]
    pub fn cp(&self) -> u32 {
        self.fp + self.wp + self.dp + self.wdp
    }

    /// Occupied area `CW_dt * CD_dt` in bits, the capacity-constraint
    /// coefficient.
    #[inline]
    pub fn area_bits(&self) -> u64 {
        self.cw as u64 * self.cd
    }
}

/// Compute the α/β width split of a segment on a bank.
pub fn width_split(bank: &BankType, seg_width: u32) -> WidthSplit {
    let alpha = bank.config_for_width(seg_width);
    let full_cols = seg_width / alpha.width;
    let rem_width = seg_width % alpha.width;
    let beta = if rem_width > 0 {
        bank.config_for_width(rem_width)
    } else {
        alpha
    };
    WidthSplit {
        alpha,
        beta,
        full_cols,
        rem_width,
    }
}

/// Pre-process one (segment, bank type) pair — the §4.1.1 computation.
pub fn preprocess_pair(bank: &BankType, seg_depth: u32, seg_width: u32) -> PreEntry {
    let split = width_split(bank, seg_width);
    let (alpha, beta) = (split.alpha, split.beta);
    let pt = bank.ports;

    let full_rows = seg_depth / alpha.depth;
    let rem_depth = seg_depth % alpha.depth;

    // FP: fully-utilized instances consume every port.
    let fp = full_rows * split.full_cols * pt;
    // WP: width-remainder column — one β-config fragment of depth D_α per
    // full row chunk.
    let wp = if split.rem_width == 0 {
        0
    } else {
        full_rows * consumed_ports(alpha.depth, beta.depth, pt)
    };
    // DP: depth-remainder row — one α-config fragment of the remainder
    // depth per full column.
    let dp = split.full_cols * consumed_ports(rem_depth, alpha.depth, pt);
    // WDP: the corner — remainder depth on a β-config instance.
    let wdp = if split.rem_width == 0 {
        0
    } else {
        consumed_ports(rem_depth, beta.depth, pt)
    };

    // CW: full columns at α width plus the β remainder column.
    let cw = split.full_cols * alpha.width + if split.rem_width > 0 { beta.width } else { 0 };
    // CD: full rows at α depth plus the pow-2-rounded remainder.
    let cd = full_rows as u64 * alpha.depth as u64 + round_pow2(rem_depth) as u64;

    PreEntry {
        fp,
        wp,
        dp,
        wdp,
        cw,
        cd,
        split,
        full_rows,
        rem_depth,
    }
}

/// The full `M x N` pre-processing table for a design on a board.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreTable {
    /// `entries[d][t]`.
    entries: Vec<Vec<PreEntry>>,
    /// `feasible[d][t]`: the pair satisfies the type's port and capacity
    /// limits on its own (otherwise `Z_dt` is forced to zero).
    feasible: Vec<Vec<bool>>,
}

impl PreTable {
    /// Pre-process every (segment, bank type) pair.
    pub fn build(design: &Design, board: &Board) -> Self {
        let mut entries = Vec::with_capacity(design.num_segments());
        let mut feasible = Vec::with_capacity(design.num_segments());
        for (_, seg) in design.iter() {
            let mut row = Vec::with_capacity(board.num_types());
            let mut frow = Vec::with_capacity(board.num_types());
            for (_, bank) in board.iter() {
                let e = preprocess_pair(bank, seg.depth, seg.width);
                let fits =
                    e.cp() <= bank.total_ports() && e.area_bits() <= bank.total_capacity_bits();
                row.push(e);
                frow.push(fits);
            }
            entries.push(row);
            feasible.push(frow);
        }
        PreTable { entries, feasible }
    }

    #[inline]
    pub fn entry(&self, d: SegmentId, t: BankTypeId) -> &PreEntry {
        &self.entries[d.0][t.0]
    }

    #[inline]
    pub fn is_feasible(&self, d: SegmentId, t: BankTypeId) -> bool {
        self.feasible[d.0][t.0]
    }

    pub fn num_segments(&self) -> usize {
        self.entries.len()
    }

    pub fn num_types(&self) -> usize {
        self.entries.first().map_or(0, Vec::len)
    }

    /// Segments with no feasible type at all (the design cannot map).
    pub fn unmappable_segments(&self) -> Vec<SegmentId> {
        self.feasible
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.iter().any(|&f| f))
            .map(|(d, _)| SegmentId(d))
            .collect()
    }
}

/// One row of Table 2: a non-increasing split of an instance's words over
/// its ports (powers of two or zero), plus whether the Figure-3 port
/// accounting accepts it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationOption {
    /// Words allotted to each port slot, non-increasing.
    pub words: Vec<u32>,
    /// Whether `consumed_ports` accounting accepts this split
    /// (e.g. `(8, 8, 0)` on a 3-port 16-word bank is rejected).
    pub accepted: bool,
}

/// Enumerate the general space-allocation options of a `ports`-port,
/// `depth`-word memory bank — Table 2 of the paper for `(3, 16)`.
///
/// Options are all non-increasing tuples of power-of-two (or zero) word
/// counts whose sum fits the instance. Each option is annotated with the
/// Figure-3 acceptance verdict.
pub fn enumerate_port_allocations(ports: u32, depth: u32) -> Vec<AllocationOption> {
    let mut sizes: Vec<u32> = vec![0];
    let mut p = 1u32;
    while p <= depth {
        sizes.push(p);
        p *= 2;
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a)); // descending

    let mut out = Vec::new();
    let mut cur: Vec<u32> = Vec::with_capacity(ports as usize);
    fn rec(
        sizes: &[u32],
        ports: u32,
        depth: u32,
        start: usize,
        used: u32,
        cur: &mut Vec<u32>,
        out: &mut Vec<AllocationOption>,
    ) {
        if cur.len() == ports as usize {
            let consumed: u32 = cur
                .iter()
                .filter(|&&w| w > 0)
                .map(|&w| consumed_ports(w, depth, ports))
                .sum();
            out.push(AllocationOption {
                words: cur.clone(),
                accepted: consumed <= ports,
            });
            return;
        }
        for (k, &s) in sizes.iter().enumerate().skip(start) {
            if used + s > depth {
                continue;
            }
            cur.push(s);
            rec(sizes, ports, depth, k, used + s, cur, out);
            cur.pop();
        }
    }
    rec(&sizes, ports, depth, 0, 0, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_arch::{BankType, Placement, RamConfig};

    /// The Figure 2 bank: 3 ports, configs 128x1, 64x2, 32x4, 16x8.
    fn fig2_bank() -> BankType {
        BankType::new(
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
        .unwrap()
    }

    #[test]
    fn round_pow2_values() {
        assert_eq!(round_pow2(0), 0);
        assert_eq!(round_pow2(1), 1);
        assert_eq!(round_pow2(7), 8);
        assert_eq!(round_pow2(8), 8);
        assert_eq!(round_pow2(9), 16);
    }

    #[test]
    fn consumed_ports_figure3() {
        // 16 words in a 128-word 3-port bank: frac 1/8, EP = ceil(3/8) = 1.
        assert_eq!(consumed_ports(16, 128, 3), 1);
        // 7 -> 8 words in a 16-word 3-port bank: frac 1/2, EP = 2.
        assert_eq!(consumed_ports(7, 16, 3), 2);
        // 8 words of 16, 3 ports: the Table 2 rejection driver (EP = 2).
        assert_eq!(consumed_ports(8, 16, 3), 2);
        // Full instance.
        assert_eq!(consumed_ports(16, 16, 3), 3);
        assert_eq!(consumed_ports(128, 128, 3), 3);
        // Empty fragment.
        assert_eq!(consumed_ports(0, 16, 3), 0);
        // Dual-port bank: half instance = 1 port (exact, no waste).
        assert_eq!(consumed_ports(8, 16, 2), 1);
        assert_eq!(consumed_ports(9, 16, 2), 2);
    }

    #[test]
    fn figure2_worked_example() {
        // A 55x17 structure on the Figure-2 bank: FP=18, WP=3, DP=4, WDP=1.
        let e = preprocess_pair(&fig2_bank(), 55, 17);
        assert_eq!(e.split.alpha, RamConfig::new(16, 8), "alpha is 16x8");
        assert_eq!(e.split.beta, RamConfig::new(128, 1), "beta is 128x1");
        assert_eq!(e.split.full_cols, 2);
        assert_eq!(e.split.rem_width, 1);
        assert_eq!(e.full_rows, 3);
        assert_eq!(e.rem_depth, 7);
        assert_eq!(e.fp, 18, "upper-left: 6 full instances x 3 ports");
        assert_eq!(e.wp, 3, "right column: 3 x 1 port");
        assert_eq!(e.dp, 4, "bottom row: 2 x 2 ports");
        assert_eq!(e.wdp, 1, "corner: 1 port");
        assert_eq!(e.cp(), 26);
        assert_eq!(e.cw, 17, "CW = 2*8 + 1");
        assert_eq!(e.cd, 56, "CD = 3*16 + pow2(7)=8");
    }

    #[test]
    fn exact_width_has_no_beta_column() {
        let e = preprocess_pair(&fig2_bank(), 32, 16);
        assert_eq!(e.split.full_cols, 2);
        assert_eq!(e.split.rem_width, 0);
        assert_eq!(e.wp, 0);
        assert_eq!(e.wdp, 0);
        assert_eq!(e.cw, 16);
        // 32 words = 2 full 16-deep rows: no depth remainder.
        assert_eq!(e.dp, 0);
        assert_eq!(e.cd, 32);
        assert_eq!(e.cp(), 2 * 2 * 3);
    }

    #[test]
    fn narrow_segment_uses_alpha_only() {
        // 3-bit wide segment: alpha is the 32x4 config; no full columns.
        let e = preprocess_pair(&fig2_bank(), 20, 3);
        assert_eq!(e.split.alpha, RamConfig::new(32, 4));
        assert_eq!(e.split.full_cols, 0);
        assert_eq!(e.split.rem_width, 3);
        assert_eq!(e.split.beta, RamConfig::new(32, 4));
        assert_eq!(e.fp, 0);
        assert_eq!(e.dp, 0);
        // Depth 20 < 32: one beta corner fragment of rounded depth 32.
        assert_eq!(e.full_rows, 0);
        assert_eq!(e.wp, 0);
        assert_eq!(e.wdp, consumed_ports(20, 32, 3));
        assert_eq!(e.wdp, 3); // 20 -> 32 words = full instance
        assert_eq!(e.cw, 4);
        assert_eq!(e.cd, 32);
    }

    #[test]
    fn tiny_segment_single_port() {
        // 4x1 segment: beta = 128x1, rounded depth 4, frac 1/32 -> 1 port.
        let e = preprocess_pair(&fig2_bank(), 4, 1);
        assert_eq!(e.cp(), 1);
        assert_eq!(e.cw, 1);
        assert_eq!(e.cd, 4);
    }

    #[test]
    fn single_config_offchip_bank() {
        let sram = BankType::new(
            "sram",
            2,
            1,
            vec![RamConfig::new(262_144, 32)],
            2,
            2,
            Placement::DirectOffChip,
        )
        .unwrap();
        // 1000x16 fits one port easily.
        let e = preprocess_pair(&sram, 1000, 16);
        assert_eq!(e.split.alpha, RamConfig::new(262_144, 32));
        assert_eq!(e.cp(), 1);
        assert_eq!(e.cw, 32);
        assert_eq!(e.cd, 1024);
        // Wider than the bank: two columns.
        let w = preprocess_pair(&sram, 1000, 40);
        assert_eq!(w.split.full_cols, 1);
        assert_eq!(w.split.rem_width, 8);
        assert_eq!(w.cw, 64);
        assert_eq!(w.cp(), 2);
    }

    #[test]
    fn table2_enumeration_matches_paper() {
        let opts = enumerate_port_allocations(3, 16);
        // Paper's Table 2 has 16 rows when the port-3 option lists are
        // expanded; here every concrete tuple is one entry. Spot-check the
        // table's content.
        let find = |w: &[u32]| opts.iter().find(|o| o.words == w).map(|o| o.accepted);
        assert_eq!(find(&[16, 0, 0]), Some(true));
        // The explicitly-rejected (8, 8, 0).
        assert_eq!(find(&[8, 8, 0]), Some(false));
        assert_eq!(find(&[8, 4, 4]), Some(false)); // 2+1+1 = 4 > 3 ports
        assert_eq!(find(&[8, 4, 2]), Some(false));
        assert_eq!(find(&[8, 4, 0]), Some(true)); // 2+1 = 3 ports
        assert_eq!(find(&[8, 2, 2]), Some(false)); // 2+1+1 = 4 > 3 ports
        assert_eq!(find(&[8, 2, 0]), Some(true)); // 2+1 = 3 ports
        assert_eq!(find(&[4, 4, 4]), Some(true)); // 1+1+1
        assert_eq!(find(&[1, 1, 1]), Some(true));
        assert_eq!(find(&[0, 0, 0]), Some(true));
        // No tuple exceeds the instance capacity.
        assert!(opts.iter().all(|o| o.words.iter().sum::<u32>() <= 16));
        // Tuples are non-increasing.
        assert!(opts
            .iter()
            .all(|o| o.words.windows(2).all(|w| w[0] >= w[1])));
        // (16, 8, ...) must not exist.
        assert!(!opts.iter().any(|o| o.words[0] == 16 && o.words[1] > 0));
    }

    #[test]
    fn pretable_feasibility() {
        use gmm_design::DesignBuilder;
        let mut b = DesignBuilder::new("t");
        let small = b.segment("small", 16, 8).unwrap();
        let huge = b.segment("huge", 1 << 20, 64).unwrap();
        let design = b.build().unwrap();
        let board = gmm_arch::Board::new("one-bank", vec![fig2_bank()]).unwrap();
        let table = PreTable::build(&design, &board);
        assert!(table.is_feasible(small, BankTypeId(0)));
        assert!(!table.is_feasible(huge, BankTypeId(0)));
        assert_eq!(table.unmappable_segments(), vec![huge]);
    }
}
