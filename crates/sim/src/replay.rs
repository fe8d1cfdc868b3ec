//! Replay validation for cached mapping solutions.
//!
//! The batch service's solution cache promises that a hit returns the
//! *byte-identical* payload of the original cold solve. This module is the
//! independent check on that promise: given the cold solve's serialized
//! detailed mapping and the payload a later cache hit handed out, it
//!
//! 1. compares the two JSON texts **byte for byte**,
//! 2. deserializes both and replays the same deterministic access trace
//!    against each on the target board,
//! 3. verifies the two simulations agree cycle-for-cycle.
//!
//! Step 2/3 look redundant after step 1 — that is the point. If a future
//! cache refactor starts normalizing, re-encoding, or partially rebuilding
//! payloads, byte equality fails loudly; if instead the serializer changes
//! shape in a way that *happens* to keep bytes equal but decodes
//! differently (or not at all), the replay catches it. Together they pin
//! the full contract: same bytes, same meaning, same cycles.

use crate::machine::{simulate_mapping, SimError, SimReport};
use crate::trace::Trace;
use gmm_arch::Board;
use gmm_core::mapping::DetailedMapping;
use gmm_design::Design;

/// Why replay validation rejected a cached solution.
#[derive(Debug, Clone)]
pub enum ReplayError {
    /// The cached payload is not byte-identical to the cold payload.
    BytesDiffer {
        /// Byte offset of the first difference.
        first_difference: usize,
        cold_len: usize,
        cached_len: usize,
    },
    /// A payload failed to parse as a [`DetailedMapping`].
    Undecodable(String),
    /// A payload decoded but does not simulate on this instance.
    Simulation(SimError),
    /// Both simulate, but the replays disagree.
    ReplayDiverged { what: &'static str },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BytesDiffer {
                first_difference,
                cold_len,
                cached_len,
            } => write!(
                f,
                "cached payload differs from cold payload at byte {first_difference} \
                 (cold {cold_len} bytes, cached {cached_len} bytes)"
            ),
            ReplayError::Undecodable(e) => write!(f, "payload does not decode: {e}"),
            ReplayError::Simulation(e) => write!(f, "payload does not simulate: {e}"),
            ReplayError::ReplayDiverged { what } => {
                write!(f, "replays diverged on {what}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Validate that a cache-hit payload is byte-identical to the cold solve
/// and replays identically. Returns the (shared) simulation report.
///
/// `cold_json` / `cached_json` are serialized [`DetailedMapping`]s. The
/// trace is [`Trace::from_profiles`], which is deterministic in the design.
pub fn validate_cache_hit(
    design: &Design,
    board: &Board,
    cold_json: &str,
    cached_json: &str,
) -> Result<SimReport, ReplayError> {
    if cold_json != cached_json {
        let first_difference = cold_json
            .bytes()
            .zip(cached_json.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| cold_json.len().min(cached_json.len()));
        return Err(ReplayError::BytesDiffer {
            first_difference,
            cold_len: cold_json.len(),
            cached_len: cached_json.len(),
        });
    }

    let report_cold = validate_payload(design, board, cold_json)?;
    let report_cached = validate_payload(design, board, cached_json)?;

    if report_cold.makespan != report_cached.makespan {
        return Err(ReplayError::ReplayDiverged { what: "makespan" });
    }
    if report_cold != report_cached {
        return Err(ReplayError::ReplayDiverged {
            what: "per-port/per-segment statistics",
        });
    }
    Ok(report_cold)
}

/// Validate one serialized [`DetailedMapping`] payload on its own: decode
/// it and replay the design's deterministic trace against it.
///
/// This is the **cache-miss-after-eviction** check. When a bounded cache
/// evicts a key and a later submission re-solves it, the service no
/// longer holds the original payload to byte-compare against — but the
/// re-solved payload must still *be a valid mapping that simulates*. A
/// caller that retained the original bytes (the retention soak test
/// does) composes this with a plain byte comparison, which together is
/// exactly [`validate_cache_hit`].
pub fn validate_payload(
    design: &Design,
    board: &Board,
    payload_json: &str,
) -> Result<SimReport, ReplayError> {
    let mapping: DetailedMapping =
        serde_json::from_str(payload_json).map_err(|e| ReplayError::Undecodable(e.to_string()))?;
    let trace = Trace::from_profiles(design);
    simulate_mapping(design, board, &mapping, &trace).map_err(ReplayError::Simulation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_core::pipeline::{Mapper, MapperOptions};
    use gmm_design::DesignBuilder;

    fn solved_instance() -> (Design, Board, String) {
        let mut b = DesignBuilder::new("replay");
        b.segment("a", 200, 8).unwrap();
        b.segment("b", 64, 4).unwrap();
        let design = b.build().unwrap();
        let board = Board::prototyping("XCV300", 1).unwrap();
        let out = Mapper::new(MapperOptions::new())
            .map(&design, &board)
            .unwrap();
        let json = serde_json::to_string(&out.detailed).unwrap();
        (design, board, json)
    }

    #[test]
    fn identical_payloads_validate() {
        let (design, board, json) = solved_instance();
        let report = validate_cache_hit(&design, &board, &json, &json.clone()).unwrap();
        assert!(report.makespan > 0);
    }

    #[test]
    fn byte_difference_is_rejected_with_offset() {
        let (design, board, json) = solved_instance();
        let mut tampered = json.clone();
        // Flip one digit somewhere past the header.
        let pos = tampered.find('2').unwrap_or(1);
        tampered.replace_range(pos..pos + 1, "3");
        match validate_cache_hit(&design, &board, &json, &tampered) {
            Err(ReplayError::BytesDiffer {
                first_difference, ..
            }) => assert_eq!(first_difference, pos),
            other => panic!("expected BytesDiffer, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (design, board, json) = solved_instance();
        let truncated = &json[..json.len() - 2];
        match validate_cache_hit(&design, &board, &json, truncated) {
            Err(ReplayError::BytesDiffer {
                first_difference,
                cached_len,
                ..
            }) => {
                assert_eq!(first_difference, truncated.len());
                assert_eq!(cached_len, truncated.len());
            }
            other => panic!("expected BytesDiffer, got {other:?}"),
        }
    }

    #[test]
    fn garbage_bytes_are_undecodable() {
        let (design, board, _) = solved_instance();
        match validate_cache_hit(&design, &board, "{not json", "{not json") {
            Err(ReplayError::Undecodable(_)) => {}
            other => panic!("expected Undecodable, got {other:?}"),
        }
    }

    #[test]
    fn standalone_payload_validates() {
        let (design, board, json) = solved_instance();
        let report = validate_payload(&design, &board, &json).unwrap();
        assert!(report.makespan > 0);
        match validate_payload(&design, &board, "[]") {
            Err(ReplayError::Undecodable(_)) => {}
            other => panic!("expected Undecodable, got {other:?}"),
        }
    }
}
