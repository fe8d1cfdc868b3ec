//! Mapping result types shared by the global, detailed, and complete
//! mappers, plus the validator enforcing the paper's structural invariants.

use crate::cost::CostBreakdown;
use crate::preprocess::round_pow2;
use gmm_arch::{BankTypeId, Board, RamConfig};
use gmm_design::{Design, SegmentId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Output of global mapping: each segment's bank type (`Z_dt`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalAssignment {
    /// `type_of[d]` = bank type of segment `d`.
    pub type_of: Vec<BankTypeId>,
    /// Cost breakdown of the assignment under the mapper's cost matrix.
    pub cost: CostBreakdown,
}

impl GlobalAssignment {
    /// Segments assigned to each type.
    pub fn segments_by_type(&self, num_types: usize) -> Vec<Vec<SegmentId>> {
        let mut by_type = vec![Vec::new(); num_types];
        for (d, t) in self.type_of.iter().enumerate() {
            by_type[t.0].push(SegmentId(d));
        }
        by_type
    }
}

/// One placed fragment of a segment: a rectangle of words living on a
/// single instance behind a set of ports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fragment {
    pub segment: SegmentId,
    pub bank_type: BankTypeId,
    /// Instance index within the bank type (`i` of `X_dtip`).
    pub instance: u32,
    /// Ports of the instance dedicated to this fragment (`p` of `X_dtip`).
    pub ports: Vec<u32>,
    /// Port configuration selected for this fragment (`Y_tipc`).
    pub config: RamConfig,
    /// First word (in `config` address space) of the fragment's reserved
    /// region.
    pub base_word: u32,
    /// Words actually holding data.
    pub used_depth: u32,
    /// Words reserved (power-of-two rounding of `used_depth`).
    pub reserved_depth: u32,
    /// Bit columns of the logical segment this fragment stores
    /// (`bit_offset .. bit_offset + config.width`, clipped to the segment).
    pub bit_offset: u32,
    /// First logical word of the segment stored here.
    pub word_offset: u32,
}

impl Fragment {
    /// Reserved footprint in physical bits.
    #[inline]
    pub fn reserved_bits(&self) -> u64 {
        self.reserved_depth as u64 * self.config.width as u64
    }

    /// Physical bit range `[start, end)` of the reserved region within the
    /// instance, under the standard linear aspect-ratio address map
    /// (word `w` at width `W` covers bits `w*W .. (w+1)*W`).
    #[inline]
    pub fn bit_range(&self) -> (u64, u64) {
        let start = self.base_word as u64 * self.config.width as u64;
        (start, start + self.reserved_bits())
    }
}

/// A complete detailed mapping: all fragments of all segments.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DetailedMapping {
    pub fragments: Vec<Fragment>,
}

impl DetailedMapping {
    /// Fragments of one segment.
    pub fn of_segment(&self, d: SegmentId) -> impl Iterator<Item = &Fragment> {
        self.fragments.iter().filter(move |f| f.segment == d)
    }

    /// Number of distinct instances a segment touches (its fragmentation).
    pub fn fragmentation(&self, d: SegmentId) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for f in self.of_segment(d) {
            set.insert((f.bank_type, f.instance));
        }
        set.len()
    }

    /// Total instances used across the whole mapping.
    pub fn instances_used(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for f in &self.fragments {
            set.insert((f.bank_type, f.instance));
        }
        set.len()
    }
}

/// A violation found by [`validate_detailed`].
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A fragment references an instance or port that does not exist.
    BadReference(String),
    /// Two fragments of conflicting segments overlap in physical bits.
    Overlap {
        a: SegmentId,
        b: SegmentId,
        bank_type: BankTypeId,
        instance: u32,
    },
    /// A port serves two different segments (arbitration is out of scope,
    /// paper §6).
    PortShared {
        bank_type: BankTypeId,
        instance: u32,
        port: u32,
    },
    /// A fragment's base address is not aligned to its reserved
    /// power-of-two depth (would need an offset adder — Figure 3's no-adder
    /// guarantee).
    Misaligned(String),
    /// A segment's fragments do not cover all of its words and bits.
    IncompleteCoverage { segment: SegmentId, detail: String },
    /// A fragment uses a configuration the bank does not offer.
    BadConfig(String),
    /// Reserved region exceeds the instance capacity.
    CapacityExceeded {
        bank_type: BankTypeId,
        instance: u32,
    },
}

/// Validation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationPolicy {
    /// Maximum distinct segments allowed per physical port. The paper's
    /// base model forbids arbitration (`1`, §6); the arbitration
    /// extension raises it.
    pub max_port_sharing: u32,
}

impl Default for ValidationPolicy {
    fn default() -> Self {
        ValidationPolicy {
            max_port_sharing: 1,
        }
    }
}

/// Validate a detailed mapping against the board, design, and conflict
/// relation under the paper's base policy (no port sharing). Returns
/// every violation found (empty = valid).
pub fn validate_detailed(
    design: &Design,
    board: &Board,
    mapping: &DetailedMapping,
) -> Vec<Violation> {
    validate_detailed_policy(design, board, mapping, ValidationPolicy::default())
}

/// Validate under an explicit policy (used by the arbitration extension).
pub fn validate_detailed_policy(
    design: &Design,
    board: &Board,
    mapping: &DetailedMapping,
    policy: ValidationPolicy,
) -> Vec<Violation> {
    let mut out = Vec::new();

    // Per-fragment structural checks.
    for f in &mapping.fragments {
        if f.bank_type.0 >= board.num_types() {
            out.push(Violation::BadReference(format!(
                "fragment references bank type {}",
                f.bank_type.0
            )));
            continue;
        }
        let bank = board.bank(f.bank_type);
        if f.instance >= bank.instances {
            out.push(Violation::BadReference(format!(
                "instance {} of type `{}` (has {})",
                f.instance, bank.name, bank.instances
            )));
        }
        for &p in &f.ports {
            if p >= bank.ports {
                out.push(Violation::BadReference(format!(
                    "port {} of type `{}` (has {})",
                    p, bank.name, bank.ports
                )));
            }
        }
        if !bank.configs.contains(&f.config) {
            out.push(Violation::BadConfig(format!(
                "config {} not offered by `{}`",
                f.config, bank.name
            )));
        }
        if f.reserved_depth != round_pow2(f.used_depth.max(1)) {
            out.push(Violation::Misaligned(format!(
                "fragment of segment {} reserves {} words for {} used",
                f.segment.0, f.reserved_depth, f.used_depth
            )));
        }
        if f.reserved_depth > 0 && f.base_word % f.reserved_depth != 0 {
            out.push(Violation::Misaligned(format!(
                "segment {} fragment base {} not a multiple of {}",
                f.segment.0, f.base_word, f.reserved_depth
            )));
        }
        let (_, end) = f.bit_range();
        if end > bank.capacity_bits() {
            out.push(Violation::CapacityExceeded {
                bank_type: f.bank_type,
                instance: f.instance,
            });
        }
    }

    // Port exclusivity and conflict-aware bit overlap, per instance.
    let mut by_instance: HashMap<(BankTypeId, u32), Vec<&Fragment>> = HashMap::new();
    for f in &mapping.fragments {
        by_instance
            .entry((f.bank_type, f.instance))
            .or_default()
            .push(f);
    }
    for ((t, i), frags) in &by_instance {
        // Ports: at most `max_port_sharing` distinct segments per port.
        let mut port_owners: HashMap<u32, std::collections::BTreeSet<SegmentId>> = HashMap::new();
        for f in frags {
            for &p in &f.ports {
                port_owners.entry(p).or_default().insert(f.segment);
            }
        }
        for (&p, owners) in &port_owners {
            if owners.len() as u32 > policy.max_port_sharing {
                out.push(Violation::PortShared {
                    bank_type: *t,
                    instance: *i,
                    port: p,
                });
            }
        }
        // Bits: conflicting segments may not overlap.
        for (a_idx, fa) in frags.iter().enumerate() {
            for fb in frags.iter().skip(a_idx + 1) {
                if fa.segment == fb.segment {
                    // Same segment: fragments must still be disjoint
                    // (mutual exclusivity of Figure 3).
                    let (s1, e1) = fa.bit_range();
                    let (s2, e2) = fb.bit_range();
                    if s1 < e2 && s2 < e1 {
                        out.push(Violation::Overlap {
                            a: fa.segment,
                            b: fb.segment,
                            bank_type: *t,
                            instance: *i,
                        });
                    }
                    continue;
                }
                if design.conflicts().conflicts(fa.segment, fb.segment) {
                    let (s1, e1) = fa.bit_range();
                    let (s2, e2) = fb.bit_range();
                    if s1 < e2 && s2 < e1 {
                        out.push(Violation::Overlap {
                            a: fa.segment,
                            b: fb.segment,
                            bank_type: *t,
                            instance: *i,
                        });
                    }
                }
            }
        }
    }

    // Coverage: every word and bit of each segment stored exactly once.
    for (d, seg) in design.iter() {
        // Collect covered (word range x bit range) rectangles.
        let mut covered: Vec<(u32, u32, u32, u32)> = Vec::new(); // (w0, w1, b0, b1)
        for f in mapping.of_segment(d) {
            let w1 = f.word_offset + f.used_depth;
            let b1 = (f.bit_offset + f.config.width).min(seg.width);
            covered.push((f.word_offset, w1, f.bit_offset, b1));
        }
        if covered.is_empty() {
            out.push(Violation::IncompleteCoverage {
                segment: d,
                detail: "no fragments".into(),
            });
            continue;
        }
        // Exact-cover check by area + no internal overlap.
        let area: u64 = covered
            .iter()
            .map(|&(w0, w1, b0, b1)| (w1 - w0) as u64 * (b1.saturating_sub(b0)) as u64)
            .sum();
        let expect = seg.depth as u64 * seg.width as u64;
        if area != expect {
            out.push(Violation::IncompleteCoverage {
                segment: d,
                detail: format!("covered area {area} != segment bits {expect}"),
            });
            continue;
        }
        let mut overlap = false;
        for (i, &(w0, w1, b0, b1)) in covered.iter().enumerate() {
            if w1 > seg.depth || b1 > seg.width {
                out.push(Violation::IncompleteCoverage {
                    segment: d,
                    detail: format!("fragment rectangle ({w0},{w1},{b0},{b1}) exceeds segment"),
                });
            }
            for &(v0, v1, c0, c1) in covered.iter().skip(i + 1) {
                if w0 < v1 && v0 < w1 && b0 < c1 && c0 < b1 {
                    overlap = true;
                }
            }
        }
        if overlap {
            out.push(Violation::IncompleteCoverage {
                segment: d,
                detail: "fragments overlap within the segment".into(),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_arch::{BankType, Placement};
    use gmm_design::DesignBuilder;

    fn small_world() -> (Design, Board) {
        let mut b = DesignBuilder::new("d");
        b.segment("s", 16, 8).unwrap();
        let design = b.build().unwrap();
        let board = Board::new(
            "b",
            vec![BankType::new(
                "ram",
                2,
                2,
                vec![RamConfig::new(128, 1), RamConfig::new(16, 8)],
                1,
                1,
                Placement::OnChip,
            )
            .unwrap()],
        )
        .unwrap();
        (design, board)
    }

    fn whole_segment_fragment() -> Fragment {
        Fragment {
            segment: SegmentId(0),
            bank_type: BankTypeId(0),
            instance: 0,
            ports: vec![0, 1],
            config: RamConfig::new(16, 8),
            base_word: 0,
            used_depth: 16,
            reserved_depth: 16,
            bit_offset: 0,
            word_offset: 0,
        }
    }

    #[test]
    fn valid_whole_segment_mapping() {
        let (design, board) = small_world();
        let mapping = DetailedMapping {
            fragments: vec![whole_segment_fragment()],
        };
        assert!(validate_detailed(&design, &board, &mapping).is_empty());
    }

    #[test]
    fn detects_missing_coverage() {
        let (design, board) = small_world();
        let mut f = whole_segment_fragment();
        f.used_depth = 8;
        f.reserved_depth = 8;
        let mapping = DetailedMapping { fragments: vec![f] };
        let v = validate_detailed(&design, &board, &mapping);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::IncompleteCoverage { .. })));
    }

    #[test]
    fn detects_misalignment() {
        let (design, board) = small_world();
        let mut f = whole_segment_fragment();
        f.base_word = 3; // not a multiple of 16
        let mapping = DetailedMapping { fragments: vec![f] };
        let v = validate_detailed(&design, &board, &mapping);
        assert!(v.iter().any(|x| matches!(x, Violation::Misaligned(_))));
    }

    #[test]
    fn detects_bad_references() {
        let (design, board) = small_world();
        let mut f = whole_segment_fragment();
        f.instance = 9;
        f.ports = vec![7];
        let mapping = DetailedMapping { fragments: vec![f] };
        let v = validate_detailed(&design, &board, &mapping);
        assert!(
            v.iter()
                .filter(|x| matches!(x, Violation::BadReference(_)))
                .count()
                >= 2
        );
    }

    #[test]
    fn detects_port_sharing_between_segments() {
        let mut b = DesignBuilder::new("d");
        b.segment("s1", 8, 8).unwrap();
        b.segment("s2", 8, 8).unwrap();
        let design = b.build().unwrap();
        let board = small_world().1;
        let mk = |seg: usize, port: u32, base: u32| Fragment {
            segment: SegmentId(seg),
            bank_type: BankTypeId(0),
            instance: 0,
            ports: vec![port],
            config: RamConfig::new(16, 8),
            base_word: base,
            used_depth: 8,
            reserved_depth: 8,
            bit_offset: 0,
            word_offset: 0,
        };
        let mapping = DetailedMapping {
            fragments: vec![mk(0, 0, 0), mk(1, 0, 8)],
        };
        let v = validate_detailed(&design, &board, &mapping);
        assert!(v.iter().any(|x| matches!(x, Violation::PortShared { .. })));
    }

    #[test]
    fn detects_conflicting_overlap() {
        let mut b = DesignBuilder::new("d");
        b.segment("s1", 8, 8).unwrap();
        b.segment("s2", 8, 8).unwrap();
        let design = b.build().unwrap(); // all-conflict default
        let board = small_world().1;
        let mk = |seg: usize, port: u32| Fragment {
            segment: SegmentId(seg),
            bank_type: BankTypeId(0),
            instance: 0,
            ports: vec![port],
            config: RamConfig::new(16, 8),
            base_word: 0, // same region!
            used_depth: 8,
            reserved_depth: 8,
            bit_offset: 0,
            word_offset: 0,
        };
        let mapping = DetailedMapping {
            fragments: vec![mk(0, 0), mk(1, 1)],
        };
        let v = validate_detailed(&design, &board, &mapping);
        assert!(v.iter().any(|x| matches!(x, Violation::Overlap { .. })));
    }

    #[test]
    fn non_conflicting_segments_may_overlap() {
        use gmm_design::Lifetime;
        let mut b = DesignBuilder::new("d");
        let s1 = b.segment("s1", 8, 8).unwrap();
        let s2 = b.segment("s2", 8, 8).unwrap();
        b.lifetime(s1, Lifetime::new(0, 5).unwrap());
        b.lifetime(s2, Lifetime::new(5, 9).unwrap());
        let design = b.build().unwrap();
        let board = small_world().1;
        let mk = |seg: usize, port: u32| Fragment {
            segment: SegmentId(seg),
            bank_type: BankTypeId(0),
            instance: 0,
            ports: vec![port],
            config: RamConfig::new(16, 8),
            base_word: 0,
            used_depth: 8,
            reserved_depth: 8,
            bit_offset: 0,
            word_offset: 0,
        };
        let mapping = DetailedMapping {
            fragments: vec![mk(0, 0), mk(1, 1)],
        };
        let v = validate_detailed(&design, &board, &mapping);
        assert!(
            !v.iter().any(|x| matches!(x, Violation::Overlap { .. })),
            "disjoint lifetimes may share storage: {v:?}"
        );
    }

    #[test]
    fn fragmentation_counts_instances() {
        let mapping = DetailedMapping {
            fragments: vec![
                whole_segment_fragment(),
                Fragment {
                    instance: 1,
                    ..whole_segment_fragment()
                },
            ],
        };
        assert_eq!(mapping.fragmentation(SegmentId(0)), 2);
        assert_eq!(mapping.instances_used(), 2);
    }
}
