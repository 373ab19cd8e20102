//! Adequate orders on configurations.
//!
//! An *adequate order* `≺` on finite configurations (Esparza/Römer/
//! Vogler) must be well-founded, refine set inclusion, and be
//! preserved by finite extensions. The cut-off criterion "`e` is a
//! cut-off if some `f` with `Mark([f]) = Mark([e])` and `[f] ≺ [e]`
//! exists" then yields a complete prefix.
//!
//! The unfolder uses the ERV total order for queueing possible
//! extensions and deciding cut-offs: size, then Parikh vectors
//! lexicographically, then Foata normal forms. Being total, it gives
//! prefixes at most the size of the reachability graph.

use std::cmp::Ordering;

/// A precomputed comparison key for the local configuration of a
/// (possible) event, totally ordered by the ERV order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// `|[e]|`.
    pub size: u32,
    /// Occurrence counts per original transition, in transition order.
    pub parikh: Vec<u16>,
    /// Per-Foata-level Parikh vectors, level by level.
    pub foata: Vec<Vec<u16>>,
}

impl OrderKey {
    /// Compares under the ERV order: returns `Less` iff `self ≺
    /// other`.
    pub fn compare(&self, other: &OrderKey) -> Ordering {
        self.size
            .cmp(&other.size)
            .then_with(|| self.parikh.cmp(&other.parikh))
            .then_with(|| self.foata.cmp(&other.foata))
    }

    /// Whether `self` is strictly smaller — the condition for using a
    /// mate as a cut-off justification.
    pub fn is_strictly_less(&self, other: &OrderKey) -> bool {
        self.compare(other) == Ordering::Less
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(size: u32, parikh: Vec<u16>, foata: Vec<Vec<u16>>) -> OrderKey {
        OrderKey {
            size,
            parikh,
            foata,
        }
    }

    #[test]
    fn size_dominates() {
        let a = key(1, vec![9, 9], vec![]);
        let b = key(2, vec![0, 0], vec![]);
        assert_eq!(a.compare(&b), Ordering::Less);
    }

    #[test]
    fn parikh_breaks_size_ties() {
        let a = key(2, vec![2, 0], vec![]);
        let b = key(2, vec![1, 1], vec![]);
        assert_eq!(a.compare(&b), Ordering::Greater);
    }

    #[test]
    fn foata_breaks_parikh_ties() {
        // Same events, different level structure: the more sequential
        // configuration has more levels with smaller first level.
        let a = key(2, vec![1, 1], vec![vec![1, 0], vec![0, 1]]);
        let b = key(2, vec![1, 1], vec![vec![1, 1]]);
        assert_ne!(a.compare(&b), Ordering::Equal);
    }

    #[test]
    fn strictness() {
        let a = key(1, vec![1], vec![vec![1]]);
        let b = key(1, vec![1], vec![vec![1]]);
        assert!(!a.is_strictly_less(&b));
        let c = key(2, vec![2], vec![vec![1], vec![1]]);
        assert!(a.is_strictly_less(&c));
    }
}
