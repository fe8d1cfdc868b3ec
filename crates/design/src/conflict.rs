//! Conflict description (paper §3.3): which segment pairs may not share
//! storage space.

use crate::lifetime::Lifetime;
use crate::segment::SegmentId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The conflict relation over segments.
///
/// The paper's input is a set of conflicting pairs; absence of lifetime
/// information must be treated conservatively, so the default is
/// [`ConflictSet::AllConflict`] (no storage sharing anywhere).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ConflictSet {
    /// Every pair of segments conflicts (the safe default).
    #[default]
    AllConflict,
    /// Exactly the listed pairs conflict; all other pairs may overlap in
    /// storage. Pairs are stored normalized with `a < b`.
    Pairs(BTreeSet<(SegmentId, SegmentId)>),
}

impl ConflictSet {
    /// Build from explicit pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (SegmentId, SegmentId)>) -> Self {
        let set = pairs
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        ConflictSet::Pairs(set)
    }

    /// Derive conflicts from lifetimes: overlapping lifetimes conflict.
    pub fn from_lifetimes(lifetimes: &[Lifetime]) -> Self {
        let mut set = BTreeSet::new();
        for i in 0..lifetimes.len() {
            for j in i + 1..lifetimes.len() {
                if lifetimes[i].overlaps(&lifetimes[j]) {
                    set.insert((SegmentId(i), SegmentId(j)));
                }
            }
        }
        ConflictSet::Pairs(set)
    }

    /// Whether segments `a` and `b` conflict (cannot share storage).
    pub fn conflicts(&self, a: SegmentId, b: SegmentId) -> bool {
        if a == b {
            return true; // a segment always "conflicts" with itself
        }
        match self {
            ConflictSet::AllConflict => true,
            ConflictSet::Pairs(set) => {
                let key = if a < b { (a, b) } else { (b, a) };
                set.contains(&key)
            }
        }
    }

    /// Number of explicit pairs (`Q` in the paper); `None` for the
    /// all-conflict default.
    pub fn num_pairs(&self) -> Option<usize> {
        match self {
            ConflictSet::AllConflict => None,
            ConflictSet::Pairs(s) => Some(s.len()),
        }
    }

    /// Add one conflicting pair (no-op on `AllConflict`).
    pub fn insert(&mut self, a: SegmentId, b: SegmentId) {
        if a == b {
            return;
        }
        if let ConflictSet::Pairs(set) = self {
            set.insert(if a < b { (a, b) } else { (b, a) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_conflict_default() {
        let c = ConflictSet::default();
        assert!(c.conflicts(SegmentId(0), SegmentId(1)));
        assert_eq!(c.num_pairs(), None);
    }

    #[test]
    fn pairs_are_normalized() {
        let c = ConflictSet::from_pairs([(SegmentId(3), SegmentId(1))]);
        assert!(c.conflicts(SegmentId(1), SegmentId(3)));
        assert!(c.conflicts(SegmentId(3), SegmentId(1)));
        assert!(!c.conflicts(SegmentId(0), SegmentId(1)));
        assert_eq!(c.num_pairs(), Some(1));
    }

    #[test]
    fn self_pairs_dropped_but_self_conflicts() {
        let c = ConflictSet::from_pairs([(SegmentId(2), SegmentId(2))]);
        assert_eq!(c.num_pairs(), Some(0));
        assert!(c.conflicts(SegmentId(2), SegmentId(2)));
    }

    #[test]
    fn lifetime_derivation() {
        let lts = vec![
            Lifetime::new(0, 5).unwrap(),
            Lifetime::new(3, 7).unwrap(),
            Lifetime::new(6, 9).unwrap(),
        ];
        let c = ConflictSet::from_lifetimes(&lts);
        assert!(c.conflicts(SegmentId(0), SegmentId(1)));
        assert!(c.conflicts(SegmentId(1), SegmentId(2)));
        assert!(!c.conflicts(SegmentId(0), SegmentId(2)));
    }

    #[test]
    fn insert_ignores_all_conflict() {
        let mut c = ConflictSet::AllConflict;
        c.insert(SegmentId(0), SegmentId(1));
        assert_eq!(c.num_pairs(), None);
        let mut p = ConflictSet::from_pairs([]);
        p.insert(SegmentId(1), SegmentId(0));
        assert_eq!(p.num_pairs(), Some(1));
    }
}
