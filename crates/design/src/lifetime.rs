//! Segment lifetimes derived from scheduling (paper §3.3).
//!
//! Scheduling determines life times of variables and data structures
//! [7, 4]; segments whose lifetimes do not overlap may share storage.
//! Lifetimes are half-open control-step intervals `[start, end)`.

use serde::{Deserialize, Serialize};

/// Half-open interval of control steps during which a segment is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lifetime {
    pub start: u32,
    /// Exclusive end; must satisfy `end > start`.
    pub end: u32,
}

impl Lifetime {
    pub fn new(start: u32, end: u32) -> Option<Self> {
        if end > start {
            Some(Lifetime { start, end })
        } else {
            None
        }
    }

    /// Whether two lifetimes overlap (half-open semantics: `[0,5)` and
    /// `[5,9)` do **not** overlap).
    #[inline]
    pub fn overlaps(&self, other: &Lifetime) -> bool {
        self.start < other.end && other.start < self.end
    }

    #[inline]
    pub fn duration(&self) -> u32 {
        self.end - self.start
    }
}

/// Sweep a set of lifetimes and return, for each event point where the
/// live set changes, the indices live at that point. For interval graphs
/// these sets are exactly the maximal cliques of the conflict graph, which
/// is what capacity constraints need.
pub fn live_sets_at_events(lifetimes: &[Lifetime]) -> Vec<Vec<usize>> {
    let mut events: Vec<u32> = lifetimes.iter().flat_map(|l| [l.start, l.end]).collect();
    events.sort_unstable();
    events.dedup();
    let mut out: Vec<Vec<usize>> = Vec::new();
    for &t in &events {
        let live: Vec<usize> = lifetimes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.start <= t && t < l.end)
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            continue;
        }
        // Keep only maximal sets (drop subsets of the previous event).
        if let Some(prev) = out.last() {
            if live.iter().all(|i| prev.contains(i)) {
                continue;
            }
            if prev.iter().all(|i| live.contains(i)) {
                out.pop();
            }
        }
        out.push(live);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_semantics() {
        let a = Lifetime::new(0, 5).unwrap();
        let b = Lifetime::new(5, 9).unwrap();
        let c = Lifetime::new(4, 6).unwrap();
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn empty_interval_rejected() {
        assert!(Lifetime::new(3, 3).is_none());
        assert!(Lifetime::new(5, 2).is_none());
    }

    #[test]
    fn live_sets_simple_chain() {
        // [0,10), [2,4), [6,8): cliques {0,1} and {0,2}.
        let lts = vec![
            Lifetime::new(0, 10).unwrap(),
            Lifetime::new(2, 4).unwrap(),
            Lifetime::new(6, 8).unwrap(),
        ];
        let sets = live_sets_at_events(&lts);
        assert!(sets.contains(&vec![0, 1]));
        assert!(sets.contains(&vec![0, 2]));
        // No set should contain both 1 and 2.
        assert!(!sets.iter().any(|s| s.contains(&1) && s.contains(&2)));
    }

    #[test]
    fn disjoint_lifetimes_are_singletons() {
        let lts = vec![Lifetime::new(0, 2).unwrap(), Lifetime::new(2, 4).unwrap()];
        let sets = live_sets_at_events(&lts);
        assert_eq!(sets, vec![vec![0], vec![1]]);
    }

    #[test]
    fn identical_lifetimes_form_one_clique() {
        let lts = vec![Lifetime::new(1, 5).unwrap(); 3];
        let sets = live_sets_at_events(&lts);
        assert_eq!(sets, vec![vec![0, 1, 2]]);
    }
}
