//! A fixed-capacity bitset with fast popcount-based set algebra.
//!
//! The transaction databases of the paper are stored *vertically*: for each
//! item we keep the set of transaction ids (a *tidset*) containing it, as a
//! [`BitSet`]. The frequency of a pattern `p = {s_1, …, s_k}` in a database
//! with `h` transactions is then
//!
//! ```text
//! f(p) = |tidset(s_1) ∩ … ∩ tidset(s_k)| / h
//! ```
//!
//! which reduces to word-wise `AND` + `popcount`, the classic Eclat
//! representation.

use crate::heapsize::HeapSize;

const BITS: usize = 64;

/// A fixed-universe set of `usize` ids backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of valid bits; bits at positions `>= len` are always zero.
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset over the universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        BitSet {
            words: vec![0; universe.div_ceil(BITS)],
            len: universe,
        }
    }

    /// Creates a bitset with every bit in `0..universe` set.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::new(universe);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.clear_tail();
        s
    }

    /// Builds a bitset from an iterator of member ids.
    ///
    /// # Panics
    /// Panics if any id is `>= universe`.
    pub fn from_iter(universe: usize, ids: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::new(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// The size of the universe (maximum id + 1 capacity).
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// The backing words, `universe().div_ceil(64)` of them: id `i` is bit
    /// `i % 64` of word `i / 64`, and bits at or past the universe are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Zeroes any bits beyond `len` in the last word (invariant restorer).
    fn clear_tail(&mut self) {
        let tail = self.len % BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Inserts `id`; returns whether it was newly inserted.
    ///
    /// # Panics
    /// Panics if `id >= universe()`.
    #[inline]
    pub fn insert(&mut self, id: usize) -> bool {
        assert!(id < self.len, "bit {id} out of universe {}", self.len);
        let w = &mut self.words[id / BITS];
        let mask = 1u64 << (id % BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `id`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, id: usize) -> bool {
        if id >= self.len {
            return false;
        }
        let w = &mut self.words[id / BITS];
        let mask = 1u64 << (id % BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        id < self.len && self.words[id / BITS] & (1u64 << (id % BITS)) != 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// `|self ∩ other|` without materialising the intersection.
    ///
    /// This is the hot operation of frequency computation.
    #[inline]
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place intersection: `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        // If `other` is shorter, the excess words of `self` become empty.
        if other.words.len() < self.words.len() {
            for w in &mut self.words[other.words.len()..] {
                *w = 0;
            }
        }
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    /// Panics if `other` has members outside `self`'s universe.
    pub fn union_with(&mut self, other: &BitSet) {
        assert!(
            other.len <= self.len || other.words[self.words.len()..].iter().all(|&w| w == 0),
            "union would exceed universe"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: `self -= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns a new bitset `self ∩ other`.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// `true` if `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// `true` if the two sets share no member.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over member ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, if any.
    pub fn min(&self) -> Option<usize> {
        self.iter().next()
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl HeapSize for BitSet {
    fn heap_size(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Ascending iterator over set bits.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * BITS + bit)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports false");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn full_respects_tail() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn full_with_word_aligned_universe() {
        let s = BitSet::full(128);
        assert_eq!(s.count(), 128);
    }

    #[test]
    fn intersection_count_matches_materialised() {
        let a = BitSet::from_iter(200, [1, 5, 64, 65, 130, 199]);
        let b = BitSet::from_iter(200, [5, 64, 131, 199]);
        assert_eq!(a.intersection_count(&b), 3);
        assert_eq!(a.intersection(&b).count(), 3);
        let inter: Vec<usize> = a.intersection(&b).iter().collect();
        assert_eq!(inter, vec![5, 64, 199]);
    }

    #[test]
    fn union_and_difference() {
        let mut a = BitSet::from_iter(100, [1, 2, 3]);
        let b = BitSet::from_iter(100, [3, 4]);
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitSet::from_iter(100, [1, 2]);
        let b = BitSet::from_iter(100, [1, 2, 3]);
        let c = BitSet::from_iter(100, [50, 99]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let ids = vec![0, 63, 64, 127, 128, 191];
        let s = BitSet::from_iter(192, ids.iter().copied());
        assert_eq!(s.iter().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn empty_iter() {
        let s = BitSet::new(100);
        assert_eq!(s.iter().count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
    }

    #[test]
    fn min_returns_smallest() {
        let s = BitSet::from_iter(100, [77, 13, 42]);
        assert_eq!(s.min(), Some(13));
    }

    #[test]
    fn zero_universe() {
        let s = BitSet::new(0);
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }

    #[test]
    fn intersect_with_mixed_universes() {
        let mut a = BitSet::from_iter(200, [1, 150]);
        let b = BitSet::from_iter(64, [1]);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::from_iter(100, [1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn heap_size_nonzero() {
        let s = BitSet::new(1000);
        assert!(s.heap_size() >= 1000 / 8);
    }
}
