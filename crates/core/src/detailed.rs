//! Detailed memory mapping (paper §4.2) — constructive implementation.
//!
//! Given the global mapper's type assignment, the detailed mapper works one
//! bank type at a time: it re-shapes each data structure into the
//! Figure-2 fragments (full instances, width-remainder column,
//! depth-remainder row, corner), selects a configuration per fragment
//! (`Y_tipc`), and packs fragments onto concrete instances (`X_dtip`) with
//!
//! * ports assigned in order of decreasing fraction size (Figure 3),
//! * fragment regions reserved at power-of-two sizes and power-of-two
//!   aligned base addresses, so address decoding needs **no adders**,
//! * first-fit-decreasing packing, which provably never fails for the
//!   1- and 2-ported banks that dominate real boards (and, per the paper,
//!   may need a global-mapper retry for ≥3-ported banks).
//!
//! Because all instances of a type are identical, none of this affects the
//! global cost — the paper's central observation.

use crate::mapping::{DetailedMapping, Fragment, GlobalAssignment};
use crate::preprocess::{consumed_ports, round_pow2, PreTable};
use gmm_arch::{BankType, BankTypeId, Board, RamConfig};
use gmm_design::{Design, SegmentId};

/// A fragment before placement: geometry and port demand only.
#[derive(Debug, Clone, PartialEq)]
pub struct FragSpec {
    pub segment: SegmentId,
    pub config: RamConfig,
    pub used_depth: u32,
    pub reserved_depth: u32,
    /// Ports demanded on whichever instance hosts it (`EP` of Figure 3).
    pub ep: u32,
    pub word_offset: u32,
    pub bit_offset: u32,
}

impl FragSpec {
    #[inline]
    pub fn reserved_bits(&self) -> u64 {
        self.reserved_depth as u64 * self.config.width as u64
    }
}

/// Decompose one segment on one bank type into Figure-2 fragments.
///
/// The fragment list always covers the segment exactly: `full_cols` ×
/// `full_rows` full instances, a β column when the width does not divide,
/// a remainder row when the depth does not divide, and a corner when both.
pub fn fragment_segment(
    bank: &BankType,
    seg_id: SegmentId,
    seg_depth: u32,
    seg_width: u32,
) -> Vec<FragSpec> {
    let entry = crate::preprocess::preprocess_pair(bank, seg_depth, seg_width);
    let split = entry.split;
    let (alpha, beta) = (split.alpha, split.beta);
    let pt = bank.ports;
    let mut out = Vec::new();

    // Fully-utilized instances.
    for r in 0..entry.full_rows {
        for c in 0..split.full_cols {
            out.push(FragSpec {
                segment: seg_id,
                config: alpha,
                used_depth: alpha.depth,
                reserved_depth: alpha.depth,
                ep: pt,
                word_offset: r * alpha.depth,
                bit_offset: c * alpha.width,
            });
        }
    }
    // Width-remainder column: a β fragment of depth D_α per full row.
    if split.rem_width > 0 {
        for r in 0..entry.full_rows {
            out.push(FragSpec {
                segment: seg_id,
                config: beta,
                used_depth: alpha.depth,
                reserved_depth: round_pow2(alpha.depth),
                ep: consumed_ports(alpha.depth, beta.depth, pt),
                word_offset: r * alpha.depth,
                bit_offset: split.full_cols * alpha.width,
            });
        }
    }
    // Depth-remainder row: an α fragment of the leftover depth per column.
    if entry.rem_depth > 0 {
        for c in 0..split.full_cols {
            out.push(FragSpec {
                segment: seg_id,
                config: alpha,
                used_depth: entry.rem_depth,
                reserved_depth: round_pow2(entry.rem_depth),
                ep: consumed_ports(entry.rem_depth, alpha.depth, pt),
                word_offset: entry.full_rows * alpha.depth,
                bit_offset: c * alpha.width,
            });
        }
        // Corner.
        if split.rem_width > 0 {
            out.push(FragSpec {
                segment: seg_id,
                config: beta,
                used_depth: entry.rem_depth,
                reserved_depth: round_pow2(entry.rem_depth),
                ep: consumed_ports(entry.rem_depth, beta.depth, pt),
                word_offset: entry.full_rows * alpha.depth,
                bit_offset: split.full_cols * alpha.width,
            });
        }
    }
    out
}

/// Port and aligned-region bookkeeping for one physical instance.
#[derive(Debug)]
pub struct InstanceAllocator {
    capacity_bits: u64,
    ports_total: u32,
    ports_used: u32,
    /// Allocated bit intervals `[start, end)`, kept sorted by start.
    taken: Vec<(u64, u64)>,
}

impl InstanceAllocator {
    pub fn new(bank: &BankType) -> Self {
        Self::with_sharing(bank, 1)
    }

    /// Allocator with `sharing` virtual port slots per physical port (the
    /// arbitration extension); physical port of virtual slot `v` is
    /// `v % bank.ports`.
    pub fn with_sharing(bank: &BankType, sharing: u32) -> Self {
        InstanceAllocator {
            capacity_bits: bank.capacity_bits(),
            ports_total: bank.ports * sharing.max(1),
            ports_used: 0,
            taken: Vec::new(),
        }
    }

    #[inline]
    pub fn ports_free(&self) -> u32 {
        self.ports_total - self.ports_used
    }

    /// Try to place a fragment: returns `(first_port, base_word)` on
    /// success. Regions are placed at offsets that are multiples of the
    /// reserved size, preserving the no-adder alignment guarantee.
    pub fn try_place(&mut self, spec: &FragSpec) -> Option<(u32, u32)> {
        if spec.ep > self.ports_free() {
            return None;
        }
        let size = spec.reserved_bits();
        if size == 0 || size > self.capacity_bits {
            return None;
        }
        let mut offset = 0u64;
        'search: while offset + size <= self.capacity_bits {
            for &(s, e) in &self.taken {
                if offset < e && s < offset + size {
                    // Collision: jump past this interval, re-aligned.
                    offset = e.div_ceil(size) * size;
                    continue 'search;
                }
            }
            // Free slot found.
            let first_port = self.ports_used;
            self.ports_used += spec.ep;
            self.taken.push((offset, offset + size));
            self.taken.sort_unstable_by_key(|&(s, _)| s);
            let base_word = (offset / spec.config.width as u64) as u32;
            return Some((first_port, base_word));
        }
        None
    }
}

/// Why detailed mapping failed for one bank type.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedFailure {
    pub bank_type: BankTypeId,
    /// Segments assigned to the failing type.
    pub segments: Vec<SegmentId>,
}

/// Run constructive detailed mapping for a global assignment.
pub fn map_detailed(
    design: &Design,
    board: &Board,
    _pre: &PreTable,
    global: &GlobalAssignment,
) -> Result<DetailedMapping, DetailedFailure> {
    let mut mapping = DetailedMapping::default();
    let by_type = global.segments_by_type(board.num_types());

    for (t, segments) in by_type.iter().enumerate() {
        if segments.is_empty() {
            continue;
        }
        let tid = BankTypeId(t);
        let bank = board.bank(tid);

        // Gather all fragments of all segments on this type.
        let mut specs: Vec<FragSpec> = Vec::new();
        for &d in segments {
            let seg = design.segment(d);
            specs.extend(fragment_segment(bank, d, seg.depth, seg.width));
        }
        // Decreasing fraction (port demand, then size): the Figure-3 port
        // assignment order.
        specs.sort_by(|a, b| {
            b.ep.cmp(&a.ep)
                .then(b.reserved_bits().cmp(&a.reserved_bits()))
                .then(a.segment.cmp(&b.segment))
        });

        let mut instances: Vec<InstanceAllocator> = Vec::new();
        for spec in &specs {
            let mut placed = None;
            for (i, inst) in instances.iter_mut().enumerate() {
                if let Some((first_port, base_word)) = inst.try_place(spec) {
                    placed = Some((i as u32, first_port, base_word));
                    break;
                }
            }
            if placed.is_none() && (instances.len() as u32) < bank.instances {
                let mut inst = InstanceAllocator::new(bank);
                if let Some((first_port, base_word)) = inst.try_place(spec) {
                    placed = Some((instances.len() as u32, first_port, base_word));
                }
                instances.push(inst);
            }
            match placed {
                Some((instance, first_port, base_word)) => {
                    mapping.fragments.push(Fragment {
                        segment: spec.segment,
                        bank_type: tid,
                        instance,
                        ports: (first_port..first_port + spec.ep).collect(),
                        config: spec.config,
                        base_word,
                        used_depth: spec.used_depth,
                        reserved_depth: spec.reserved_depth,
                        bit_offset: spec.bit_offset,
                        word_offset: spec.word_offset,
                    });
                }
                None => {
                    return Err(DetailedFailure {
                        bank_type: tid,
                        segments: segments.clone(),
                    });
                }
            }
        }
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostMatrix, CostWeights};
    use crate::global::{solve_global, SolverBackend};
    use crate::mapping::validate_detailed;
    use gmm_arch::Placement;
    use gmm_design::DesignBuilder;

    fn fig2_bank(instances: u32) -> BankType {
        BankType::new(
            "fig2",
            instances,
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
    fn figure2_fragments() {
        let frags = fragment_segment(&fig2_bank(12), SegmentId(0), 55, 17);
        // 6 full + 3 width-column + 2 depth-row + 1 corner = 12 fragments.
        assert_eq!(frags.len(), 12);
        let total_ep: u32 = frags.iter().map(|f| f.ep).sum();
        assert_eq!(total_ep, 26, "CP_dt must equal the fragment EP sum");
        // Coverage area check: sum of used rectangles = 55*17 bits.
        let area: u64 = frags
            .iter()
            .map(|f| {
                let w = f.config.width.min(17 - f.bit_offset);
                f.used_depth as u64 * w as u64
            })
            .sum();
        assert_eq!(area, 55 * 17);
    }

    #[test]
    fn fragment_ep_matches_pretable_cp() {
        // Property: fragment EP sum == CP_dt for assorted shapes.
        let bank = fig2_bank(12);
        for (d, w) in [
            (1u32, 1u32),
            (16, 8),
            (55, 17),
            (100, 3),
            (128, 16),
            (7, 7),
            (129, 9),
        ] {
            let frags = fragment_segment(&bank, SegmentId(0), d, w);
            let entry = crate::preprocess::preprocess_pair(&bank, d, w);
            let ep_sum: u32 = frags.iter().map(|f| f.ep).sum();
            assert_eq!(ep_sum, entry.cp(), "mismatch for {d}x{w}");
        }
    }

    #[test]
    fn allocator_alignment() {
        let bank = fig2_bank(1);
        let mut inst = InstanceAllocator::new(&bank);
        let spec = FragSpec {
            segment: SegmentId(0),
            config: RamConfig::new(128, 1),
            used_depth: 16,
            reserved_depth: 16,
            ep: 1,
            word_offset: 0,
            bit_offset: 0,
        };
        let (p0, w0) = inst.try_place(&spec).unwrap();
        assert_eq!((p0, w0), (0, 0));
        let (p1, w1) = inst.try_place(&spec).unwrap();
        assert_eq!(p1, 1);
        assert_eq!(w1 % 16, 0);
        let (p2, _) = inst.try_place(&spec).unwrap();
        assert_eq!(p2, 2);
        // Out of ports now.
        assert!(inst.try_place(&spec).is_none());
    }

    #[test]
    fn allocator_respects_capacity() {
        let bank = BankType::new(
            "b",
            1,
            2,
            vec![RamConfig::new(16, 8)],
            1,
            1,
            Placement::OnChip,
        )
        .unwrap();
        let mut inst = InstanceAllocator::new(&bank);
        let big = FragSpec {
            segment: SegmentId(0),
            config: RamConfig::new(16, 8),
            used_depth: 16,
            reserved_depth: 16,
            ep: 1,
            word_offset: 0,
            bit_offset: 0,
        };
        assert!(inst.try_place(&big).is_some());
        // Instance is spatially full even though a port remains.
        assert_eq!(inst.ports_free(), 1);
        assert!(inst.try_place(&big).is_none());
    }

    /// End-to-end: global then detailed, validated, on a dual-port board.
    #[test]
    fn global_then_detailed_validates() {
        let mut b = DesignBuilder::new("d");
        for i in 0..8 {
            b.segment(format!("s{i}"), 40 + 17 * i, 3 + (i % 6))
                .unwrap();
        }
        let design = b.build().unwrap();
        let board = Board::new(
            "b",
            vec![
                BankType::new(
                    "onchip",
                    8,
                    2,
                    vec![
                        RamConfig::new(4096, 1),
                        RamConfig::new(2048, 2),
                        RamConfig::new(1024, 4),
                        RamConfig::new(512, 8),
                        RamConfig::new(256, 16),
                    ],
                    1,
                    1,
                    Placement::OnChip,
                )
                .unwrap(),
                gmm_arch::devices::off_chip::zbt_sram("sram", 2, 65536, 32),
            ],
        )
        .unwrap();
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let global = solve_global(
            &design,
            &board,
            &pre,
            &matrix,
            &CostWeights::default(),
            &SolverBackend::default(),
            false,
            &[],
        )
        .unwrap();
        let detailed = map_detailed(&design, &board, &pre, &global).unwrap();
        let violations = validate_detailed(&design, &board, &detailed);
        assert!(violations.is_empty(), "violations: {violations:?}");
        // Every fragment sits on the type global mapping chose.
        for f in &detailed.fragments {
            assert_eq!(f.bank_type, global.type_of[f.segment.0]);
        }
    }

    #[test]
    fn detailed_failure_reports_segments() {
        // Force an impossible packing directly (bypassing global):
        // 3 fragments of EP=2 on a 3-port bank with 2 instances would fit
        // the global port constraint (6 <= 6) but not the packing.
        let board = Board::new("b", vec![fig2_bank(2)]).unwrap();
        let mut b = DesignBuilder::new("d");
        // Each 8x8 segment: alpha 16x8, one fragment of depth 8 -> EP=2.
        for i in 0..3 {
            b.segment(format!("s{i}"), 8, 8).unwrap();
        }
        let design = b.build().unwrap();
        let pre = PreTable::build(&design, &board);
        let global = GlobalAssignment {
            type_of: vec![BankTypeId(0); 3],
            cost: Default::default(),
        };
        let err = map_detailed(&design, &board, &pre, &global).unwrap_err();
        assert_eq!(err.bank_type, BankTypeId(0));
        assert_eq!(err.segments.len(), 3);
    }
}
