//! The [`Design`] container: everything the memory mapper needs to know
//! about an application.

use crate::access::AccessProfile;
use crate::conflict::ConflictSet;
use crate::lifetime::{live_sets_at_events, Lifetime};
use crate::segment::{DataSegment, SegmentError, SegmentId};
use serde::{Deserialize, Serialize};

/// A complete application-side mapping input: segments, access profiles,
/// optional lifetimes, and the conflict relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Design {
    pub name: String,
    segments: Vec<DataSegment>,
    profiles: Vec<AccessProfile>,
    lifetimes: Option<Vec<Lifetime>>,
    conflicts: ConflictSet,
}

/// Errors raised while assembling a design.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignError {
    Segment(SegmentError),
    /// A design must contain at least one segment.
    Empty,
    /// Lifetime list length must match the segment count.
    LifetimeArity {
        segments: usize,
        lifetimes: usize,
    },
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::Segment(e) => write!(f, "invalid segment: {e}"),
            DesignError::Empty => write!(f, "design has no segments"),
            DesignError::LifetimeArity {
                segments,
                lifetimes,
            } => write!(f, "{lifetimes} lifetimes supplied for {segments} segments"),
        }
    }
}

impl std::error::Error for DesignError {}

impl From<SegmentError> for DesignError {
    fn from(e: SegmentError) -> Self {
        DesignError::Segment(e)
    }
}

impl Design {
    /// The design's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    #[inline]
    pub fn segment(&self, id: SegmentId) -> &DataSegment {
        &self.segments[id.0]
    }

    #[inline]
    pub fn profile(&self, id: SegmentId) -> AccessProfile {
        self.profiles[id.0]
    }

    pub fn segments(&self) -> &[DataSegment] {
        &self.segments
    }

    /// Iterate `(id, segment)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentId, &DataSegment)> {
        self.segments
            .iter()
            .enumerate()
            .map(|(i, s)| (SegmentId(i), s))
    }

    pub fn conflicts(&self) -> &ConflictSet {
        &self.conflicts
    }

    pub fn lifetimes(&self) -> Option<&[Lifetime]> {
        self.lifetimes.as_deref()
    }

    /// Total storage demand in bits.
    pub fn total_bits(&self) -> u64 {
        self.segments.iter().map(DataSegment::bits).sum()
    }

    /// Maximal sets of simultaneously-live segments. With lifetimes these
    /// are the interval-graph cliques; without, the single set of all
    /// segments (everything conflicts).
    pub fn concurrency_cliques(&self) -> Vec<Vec<SegmentId>> {
        match &self.lifetimes {
            Some(lts) => live_sets_at_events(lts)
                .into_iter()
                .map(|set| set.into_iter().map(SegmentId).collect())
                .collect(),
            None => vec![(0..self.segments.len()).map(SegmentId).collect()],
        }
    }

    /// Find a segment by name.
    pub fn find(&self, name: &str) -> Option<SegmentId> {
        self.segments
            .iter()
            .position(|s| s.name == name)
            .map(SegmentId)
    }
}

/// Builder for [`Design`].
#[derive(Debug, Default)]
pub struct DesignBuilder {
    name: String,
    segments: Vec<DataSegment>,
    profiles: Vec<Option<AccessProfile>>,
    lifetimes: Vec<Option<Lifetime>>,
    explicit_conflicts: Vec<(SegmentId, SegmentId)>,
    use_explicit_conflicts: bool,
}

impl DesignBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        DesignBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a segment; returns its id.
    pub fn segment(
        &mut self,
        name: impl Into<String>,
        depth: u32,
        width: u32,
    ) -> Result<SegmentId, DesignError> {
        let seg = DataSegment::new(name, depth, width)?;
        self.segments.push(seg);
        self.profiles.push(None);
        self.lifetimes.push(None);
        Ok(SegmentId(self.segments.len() - 1))
    }

    /// Attach an access profile (defaults to the paper's depth-based one).
    pub fn profile(&mut self, id: SegmentId, profile: AccessProfile) -> &mut Self {
        self.profiles[id.0] = Some(profile);
        self
    }

    /// Attach a lifetime interval.
    pub fn lifetime(&mut self, id: SegmentId, lifetime: Lifetime) -> &mut Self {
        self.lifetimes[id.0] = Some(lifetime);
        self
    }

    /// Declare an explicit conflict pair; switches the design from the
    /// all-conflict default to explicit-pair mode.
    pub fn conflict(&mut self, a: SegmentId, b: SegmentId) -> &mut Self {
        self.explicit_conflicts.push((a, b));
        self.use_explicit_conflicts = true;
        self
    }

    /// Finalize. Conflict derivation:
    /// * lifetimes on **all** segments → conflicts = lifetime overlaps
    ///   united with any explicit pairs;
    /// * explicit pairs only → exactly those pairs conflict;
    /// * neither → every pair conflicts (safe default).
    pub fn build(self) -> Result<Design, DesignError> {
        if self.segments.is_empty() {
            return Err(DesignError::Empty);
        }
        let n = self.segments.len();
        let profiles: Vec<AccessProfile> = self
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| p.unwrap_or_else(|| AccessProfile::paper_default(self.segments[i].depth)))
            .collect();

        let have_all_lifetimes = self.lifetimes.iter().all(Option::is_some);
        let have_any_lifetime = self.lifetimes.iter().any(Option::is_some);
        if have_any_lifetime && !have_all_lifetimes {
            return Err(DesignError::LifetimeArity {
                segments: n,
                lifetimes: self.lifetimes.iter().filter(|l| l.is_some()).count(),
            });
        }

        let lifetimes: Option<Vec<Lifetime>> = if have_all_lifetimes {
            Some(self.lifetimes.iter().map(|l| l.unwrap()).collect())
        } else {
            None
        };

        let conflicts = match (&lifetimes, self.use_explicit_conflicts) {
            (Some(lts), _) => {
                let mut c = ConflictSet::from_lifetimes(lts);
                for (a, b) in &self.explicit_conflicts {
                    c.insert(*a, *b);
                }
                c
            }
            (None, true) => ConflictSet::from_pairs(self.explicit_conflicts),
            (None, false) => ConflictSet::AllConflict,
        };

        Ok(Design {
            name: self.name,
            segments: self.segments,
            profiles,
            lifetimes,
            conflicts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_segment_builder() -> (DesignBuilder, SegmentId, SegmentId) {
        let mut b = DesignBuilder::new("t");
        let a = b.segment("a", 100, 8).unwrap();
        let c = b.segment("b", 50, 16).unwrap();
        (b, a, c)
    }

    #[test]
    fn default_profiles_follow_paper() {
        let (b, a, _) = two_segment_builder();
        let d = b.build().unwrap();
        assert_eq!(d.profile(a).reads, 100);
        assert_eq!(d.profile(a).writes, 100);
        assert_eq!(d.total_bits(), 100 * 8 + 50 * 16);
    }

    #[test]
    fn default_conflicts_are_all() {
        let (b, a, c) = two_segment_builder();
        let d = b.build().unwrap();
        assert!(d.conflicts().conflicts(a, c));
        assert_eq!(d.concurrency_cliques(), vec![vec![a, c]]);
    }

    #[test]
    fn lifetimes_derive_conflicts() {
        let (mut b, a, c) = two_segment_builder();
        b.lifetime(a, Lifetime::new(0, 5).unwrap());
        b.lifetime(c, Lifetime::new(5, 9).unwrap());
        let d = b.build().unwrap();
        assert!(!d.conflicts().conflicts(a, c));
        assert_eq!(d.concurrency_cliques().len(), 2);
    }

    #[test]
    fn partial_lifetimes_rejected() {
        let (mut b, a, _) = two_segment_builder();
        b.lifetime(a, Lifetime::new(0, 5).unwrap());
        assert!(matches!(b.build(), Err(DesignError::LifetimeArity { .. })));
    }

    #[test]
    fn explicit_conflicts_only() {
        let (mut b, a, c) = two_segment_builder();
        let e = b.segment("c", 10, 4).unwrap();
        b.conflict(a, c);
        let d = b.build().unwrap();
        assert!(d.conflicts().conflicts(a, c));
        assert!(!d.conflicts().conflicts(a, e));
    }

    #[test]
    fn empty_design_rejected() {
        assert!(matches!(
            DesignBuilder::new("x").build(),
            Err(DesignError::Empty)
        ));
    }

    #[test]
    fn find_by_name() {
        let (b, _, c) = two_segment_builder();
        let d = b.build().unwrap();
        assert_eq!(d.find("b"), Some(c));
        assert_eq!(d.find("zzz"), None);
    }

    #[test]
    fn serde_roundtrip() {
        let (b, _, _) = two_segment_builder();
        let d = b.build().unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: Design = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
