//! Markings (multisets of places).

use std::fmt;

use crate::PlaceId;

/// A marking `M : S → ℕ`, stored densely per place.
///
/// Markings are ordered lexicographically by place id — this is exactly
/// the `<lex` order the paper uses for the USC separating constraint
/// `M' <lex M''`.
///
/// # Examples
///
/// ```
/// use petri::{Marking, PlaceId};
///
/// let p = PlaceId::new(1);
/// let m = Marking::with_tokens(3, &[(p, 2)]);
/// assert_eq!(m.tokens(p), 2);
/// assert_eq!(m.total(), 2);
/// assert!(!m.is_safe());
/// ```
#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking(Vec<u32>);

/// `clone_from` reuses the buffer, so a scratch marking allocates once.
impl Clone for Marking {
    fn clone(&self) -> Self {
        Marking(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl Marking {
    /// The empty marking over `num_places` places.
    pub fn empty(num_places: usize) -> Self {
        Marking(vec![0; num_places])
    }

    /// A marking with the given token counts; unlisted places get 0.
    ///
    /// # Panics
    ///
    /// Panics if a place id is out of range.
    pub fn with_tokens(num_places: usize, tokens: &[(PlaceId, u32)]) -> Self {
        let mut m = Self::empty(num_places);
        for &(p, k) in tokens {
            m.0[p.index()] = k;
        }
        m
    }

    /// Number of places this marking ranges over.
    pub fn num_places(&self) -> usize {
        self.0.len()
    }

    /// Tokens on place `p` (`M(p)`).
    #[inline]
    pub fn tokens(&self, p: PlaceId) -> u32 {
        self.0[p.index()]
    }

    /// Adds one token to `p`.
    #[inline]
    pub fn add_token(&mut self, p: PlaceId) {
        self.0[p.index()] += 1;
    }

    /// Removes one token from `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is unmarked.
    #[inline]
    pub fn remove_token(&mut self, p: PlaceId) {
        let slot = &mut self.0[p.index()];
        assert!(*slot > 0, "removing token from empty place {p}");
        *slot -= 1;
    }

    /// Total number of tokens.
    pub fn total(&self) -> u32 {
        self.0.iter().sum()
    }

    /// Whether every place holds at most one token.
    pub fn is_safe(&self) -> bool {
        self.0.iter().all(|&k| k <= 1)
    }

    /// Whether every place holds at most `k` tokens.
    pub fn is_bounded_by(&self, k: u32) -> bool {
        self.0.iter().all(|&c| c <= k)
    }

    /// The marked places, in id order (with multiplicity ignored).
    pub fn marked_places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, &k)| k > 0)
            .map(|(i, _)| PlaceId::new(i))
    }

    /// Raw token counts, indexed by place id.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.0
                    .iter()
                    .enumerate()
                    .filter(|(_, &k)| k > 0)
                    .map(|(i, k)| (PlaceId::new(i), k)),
            )
            .finish()
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (i, &k) in self.0.iter().enumerate() {
            for _ in 0..k {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}", PlaceId::new(i))?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_arithmetic() {
        let p = PlaceId::new(0);
        let q = PlaceId::new(1);
        let mut m = Marking::empty(2);
        m.add_token(p);
        m.add_token(p);
        m.add_token(q);
        assert_eq!(m.tokens(p), 2);
        assert_eq!(m.total(), 3);
        assert!(!m.is_safe());
        m.remove_token(p);
        assert!(m.is_safe());
        assert!(m.is_bounded_by(1));
    }

    #[test]
    #[should_panic(expected = "empty place")]
    fn underflow_panics() {
        let mut m = Marking::empty(1);
        m.remove_token(PlaceId::new(0));
    }

    #[test]
    fn lexicographic_order_matches_paper() {
        // M' <lex M'' compares the place vector left to right.
        let a = Marking::with_tokens(3, &[(PlaceId::new(0), 1)]);
        let b = Marking::with_tokens(3, &[(PlaceId::new(0), 1), (PlaceId::new(2), 1)]);
        let c = Marking::with_tokens(3, &[(PlaceId::new(1), 1)]);
        assert!(a < b);
        assert!(c < a); // place 0 empty in c, marked in a
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn marked_places_and_display() {
        let m = Marking::with_tokens(4, &[(PlaceId::new(3), 1), (PlaceId::new(1), 2)]);
        let marked: Vec<_> = m.marked_places().collect();
        assert_eq!(marked, vec![PlaceId::new(1), PlaceId::new(3)]);
        assert_eq!(m.to_string(), "{s1, s1, s3}");
    }
}
