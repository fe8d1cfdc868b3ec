//! Address-decode analysis: verify the Figure-3 "no adder" guarantee.
//!
//! Because every fragment's reserved depth is a power of two and its base
//! word a multiple of that size, the physical address of logical word `w`
//! is formed by **concatenating** a constant prefix with the low bits of
//! `w` — no base-address adder is synthesized. This module derives the
//! decoder structure of each fragment and rejects mappings that would need
//! arithmetic.

use gmm_core::mapping::{DetailedMapping, Fragment};
use serde::{Deserialize, Serialize};

/// The decoder of one fragment: `addr = (prefix << offset_bits) | low(w)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeInfo {
    /// Constant high bits of the physical word address.
    pub prefix: u32,
    /// Number of low (pass-through) address bits.
    pub offset_bits: u32,
}

/// Errors raised deriving a decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Reserved depth is not a power of two.
    NotPow2 { reserved: u32 },
    /// Base word is not aligned to the reserved depth: an adder would be
    /// required.
    NeedsAdder { base: u32, reserved: u32 },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NotPow2 { reserved } => {
                write!(f, "reserved depth {reserved} is not a power of two")
            }
            DecodeError::NeedsAdder { base, reserved } => {
                write!(
                    f,
                    "base {base} not aligned to {reserved}: offset adder required"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Derive the adder-free decoder of a fragment.
pub fn address_decoder(fragment: &Fragment) -> Result<DecodeInfo, DecodeError> {
    let reserved = fragment.reserved_depth;
    if reserved == 0 || !reserved.is_power_of_two() {
        return Err(DecodeError::NotPow2 { reserved });
    }
    if !fragment.base_word.is_multiple_of(reserved) {
        return Err(DecodeError::NeedsAdder {
            base: fragment.base_word,
            reserved,
        });
    }
    let offset_bits = reserved.trailing_zeros();
    Ok(DecodeInfo {
        prefix: fragment.base_word >> offset_bits,
        offset_bits,
    })
}

/// Check a whole mapping; returns one error per offending fragment.
pub fn check_adder_free(mapping: &DetailedMapping) -> Vec<(usize, DecodeError)> {
    mapping
        .fragments
        .iter()
        .enumerate()
        .filter_map(|(i, f)| address_decoder(f).err().map(|e| (i, e)))
        .collect()
}

/// Translate a fragment-relative word index to the physical word address
/// using pure bit operations (the hardware the decoder synthesizes).
#[inline]
pub fn physical_word(info: &DecodeInfo, local_word: u32) -> u32 {
    (info.prefix << info.offset_bits) | (local_word & ((1 << info.offset_bits) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_arch::{BankTypeId, RamConfig};
    use gmm_design::SegmentId;

    fn fragment(base: u32, reserved: u32) -> Fragment {
        Fragment {
            segment: SegmentId(0),
            bank_type: BankTypeId(0),
            instance: 0,
            ports: vec![0],
            config: RamConfig::new(128, 1),
            base_word: base,
            used_depth: reserved.min(5),
            reserved_depth: reserved,
            bit_offset: 0,
            word_offset: 0,
        }
    }

    #[test]
    fn aligned_fragment_decodes() {
        let d = address_decoder(&fragment(32, 16)).unwrap();
        assert_eq!(d.prefix, 2);
        assert_eq!(d.offset_bits, 4);
        assert_eq!(physical_word(&d, 0), 32);
        assert_eq!(physical_word(&d, 5), 37);
        assert_eq!(physical_word(&d, 15), 47);
    }

    #[test]
    fn misaligned_fragment_rejected() {
        assert!(matches!(
            address_decoder(&fragment(24, 16)),
            Err(DecodeError::NeedsAdder { .. })
        ));
    }

    #[test]
    fn non_pow2_rejected() {
        assert!(matches!(
            address_decoder(&fragment(0, 12)),
            Err(DecodeError::NotPow2 { .. })
        ));
    }

    #[test]
    fn whole_mapping_check() {
        let m = DetailedMapping {
            fragments: vec![fragment(0, 16), fragment(24, 16), fragment(48, 16)],
        };
        let errs = check_adder_free(&m);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].0, 1);
    }

    #[test]
    fn single_word_fragment() {
        let d = address_decoder(&fragment(7, 1)).unwrap();
        assert_eq!(d.offset_bits, 0);
        assert_eq!(physical_word(&d, 0), 7);
    }
}
