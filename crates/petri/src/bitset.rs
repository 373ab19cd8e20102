//! A compact growable bit set.
//!
//! The unfolding engine and the integer-programming solver manipulate
//! causality/conflict/concurrency relations as dense bit sets; keeping a
//! dedicated implementation (rather than pulling an external crate) is
//! deliberate — the whole point of the reproduction is that the solver
//! uses `O(|E|)` working memory on top of the prefix, and the hot loops
//! are word-parallel set operations.

use std::fmt;

/// A fixed-capacity set of `usize` elements stored as a bit vector.
///
/// All binary operations (`union_with`, `intersect_with`, …) require the
/// two sets to have the same capacity and panic otherwise; this catches
/// accidental mixing of sets over different index spaces.
///
/// # Examples
///
/// ```
/// use petri::BitSet;
///
/// let mut a = BitSet::new(70);
/// a.insert(3);
/// a.insert(69);
/// let mut b = BitSet::new(70);
/// b.insert(69);
/// assert!(!a.is_disjoint(&b));
/// a.intersect_with(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![69]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold elements `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Returns the capacity (exclusive upper bound on elements).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grows the capacity to at least `capacity`, keeping contents.
    pub fn grow(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.capacity = capacity;
            self.words.resize(capacity.div_ceil(64), 0);
        }
    }

    /// Inserts `i`, returning whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bitset index {i} out of range");
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i`, returning whether it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Returns whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn assert_compatible(&self, other: &Self) {
        assert_eq!(
            self.capacity, other.capacity,
            "bitset capacity mismatch ({} vs {})",
            self.capacity, other.capacity
        );
    }

    /// `self ← self ∪ other`.
    pub fn union_with(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ← self ∩ other`.
    pub fn intersect_with(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self ← self \ other`.
    pub fn difference_with(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns whether the two sets share no element.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.assert_compatible(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Returns whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.assert_compatible(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over the elements of `self \ other` in increasing
    /// order, word by word, without materialising the difference.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn iter_difference<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = usize> + 'a {
        self.assert_compatible(other);
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(i, (a, b))| {
                let mut word = a & !b;
                std::iter::from_fn(move || {
                    (word != 0).then(|| {
                        let bit = word.trailing_zeros() as usize;
                        word &= word - 1;
                        i * 64 + bit
                    })
                })
            })
    }

    /// Returns the smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects elements into a set whose capacity is `max + 1`.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let elems: Vec<usize> = iter.into_iter().collect();
        let cap = elems.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(cap);
        for e in elems {
            set.insert(e);
        }
        set
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for e in iter {
            if e >= self.capacity {
                self.grow(e + 1);
            }
            self.insert(e);
        }
    }
}

/// Iterator over the elements of a [`BitSet`], in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_difference_matches_difference_with() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        for i in (0..200).step_by(3) {
            a.insert(i);
        }
        for i in (0..200).step_by(5) {
            b.insert(i);
        }
        let mut expected = a.clone();
        expected.difference_with(&b);
        assert_eq!(
            a.iter_difference(&b).collect::<Vec<_>>(),
            expected.iter().collect::<Vec<_>>()
        );
        assert_eq!(a.iter_difference(&a).count(), 0);
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1, 2, 3, 100].into_iter().collect();
        let mut b = BitSet::new(101);
        b.extend([2, 3, 5]);
        let mut u = a.clone();
        u.grow(101);
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 5, 100]);
        let mut i = a.clone();
        i.grow(101);
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
        let mut d = a.clone();
        d.grow(101);
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 100]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a: BitSet = [1, 2].into_iter().collect();
        let mut b = BitSet::new(3);
        b.extend([1, 2]);
        b.grow(3);
        let mut big = BitSet::new(3);
        big.extend([0, 1, 2]);
        assert!(a.is_subset(&b));
        assert!(b.is_subset(&big));
        assert!(!big.is_subset(&b));
        let c: BitSet = [0].into_iter().collect();
        let mut c3 = BitSet::new(3);
        c3.extend([0]);
        assert!(c3.is_disjoint(&a) || !c.is_empty());
    }

    #[test]
    fn iter_empty_and_first() {
        let s = BitSet::new(0);
        assert_eq!(s.iter().next(), None);
        assert!(s.is_empty());
        let s: BitSet = [42].into_iter().collect();
        assert_eq!(s.first(), Some(42));
    }

    #[test]
    fn grow_preserves_contents() {
        let mut s = BitSet::new(10);
        s.insert(9);
        s.grow(1000);
        assert!(s.contains(9));
        s.insert(999);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mismatched_capacity_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }
}
