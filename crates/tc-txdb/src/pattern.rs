//! Patterns (themes): sorted, duplicate-free itemsets.
//!
//! The paper uses *theme* and *pattern* interchangeably (§3.1); a pattern is
//! an itemset `p ⊆ S`. Patterns are kept sorted so subset tests and unions
//! are linear merges, and so the lexicographic order over patterns is the
//! prefix order required by Apriori joins and the set-enumeration tree.

use crate::item::Item;
use tc_util::HeapSize;

/// An immutable sorted itemset.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pattern {
    items: Box<[Item]>,
}

impl Pattern {
    /// The empty pattern `∅` (the theme of the whole database network).
    pub fn empty() -> Self {
        Pattern {
            items: Box::new([]),
        }
    }

    /// Builds a pattern from arbitrary items, sorting and deduplicating.
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        Pattern {
            items: items.into_boxed_slice(),
        }
    }

    /// A single-item pattern.
    pub fn singleton(item: Item) -> Self {
        Pattern {
            items: Box::new([item]),
        }
    }

    /// Number of items (`|p|`, the pattern *length*).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` for the empty pattern.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Iterates the items in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Item> + '_ {
        self.items.iter().copied()
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// `true` if `self ⊆ other` (linear merge).
    pub fn is_subset_of(&self, other: &Pattern) -> bool {
        let mut j = 0;
        for &x in self.items.iter() {
            loop {
                if j == other.items.len() {
                    return false;
                }
                match other.items[j].cmp(&x) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        j += 1;
                        break;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
        }
        true
    }

    /// `self ∪ other` (linear merge).
    pub fn union(&self, other: &Pattern) -> Pattern {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Pattern {
            items: out.into_boxed_slice(),
        }
    }

    /// `self ∩ other` (linear merge).
    pub fn intersection(&self, other: &Pattern) -> Pattern {
        Pattern {
            items: tc_util::sorted::intersect(&self.items, &other.items).into_boxed_slice(),
        }
    }

    /// A new pattern with `item` added (no-op if already present).
    pub fn with_item(&self, item: Item) -> Pattern {
        match self.items.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut out = Vec::with_capacity(self.len() + 1);
                out.extend_from_slice(&self.items[..pos]);
                out.push(item);
                out.extend_from_slice(&self.items[pos..]);
                Pattern {
                    items: out.into_boxed_slice(),
                }
            }
        }
    }

    /// All sub-patterns obtained by removing exactly one item — the
    /// `(k-1)`-sub-patterns checked by Algorithm 2's Apriori pruning.
    pub fn k_minus_one_subsets(&self) -> impl Iterator<Item = Pattern> + '_ {
        (0..self.items.len()).map(move |skip| {
            let mut out = Vec::with_capacity(self.items.len() - 1);
            for (i, &item) in self.items.iter().enumerate() {
                if i != skip {
                    out.push(item);
                }
            }
            Pattern {
                items: out.into_boxed_slice(),
            }
        })
    }

    /// The items except the last — the Apriori join *prefix*.
    pub fn prefix(&self) -> &[Item] {
        self.items.split_last().map_or(&[], |(_, rest)| rest)
    }

    /// The largest item, if nonempty.
    pub fn last(&self) -> Option<Item> {
        self.items.last().copied()
    }
}

impl From<Vec<Item>> for Pattern {
    fn from(v: Vec<Item>) -> Self {
        Pattern::new(v)
    }
}

impl From<&[Item]> for Pattern {
    fn from(v: &[Item]) -> Self {
        Pattern::new(v.to_vec())
    }
}

impl FromIterator<Item> for Pattern {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Pattern::new(iter.into_iter().collect())
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl HeapSize for Pattern {
    fn heap_size(&self) -> usize {
        self.items.len() * std::mem::size_of::<Item>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| Item(i)).collect())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let q = p(&[3, 1, 2, 1, 3]);
        assert_eq!(q.items(), &[Item(1), Item(2), Item(3)]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn empty_pattern() {
        let e = Pattern::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_subset_of(&p(&[1, 2])));
        assert_eq!(e.last(), None);
        assert_eq!(e.prefix(), &[]);
    }

    #[test]
    fn subset_tests() {
        assert!(p(&[1, 3]).is_subset_of(&p(&[1, 2, 3])));
        assert!(!p(&[1, 4]).is_subset_of(&p(&[1, 2, 3])));
        assert!(p(&[2]).is_subset_of(&p(&[1, 2, 3])));
        assert!(!p(&[0]).is_subset_of(&p(&[1, 2, 3])));
        assert!(p(&[1, 2, 3]).is_subset_of(&p(&[1, 2, 3])));
        assert!(!p(&[1, 2, 3]).is_subset_of(&p(&[1, 2])));
    }

    #[test]
    fn union_merges() {
        assert_eq!(p(&[1, 3]).union(&p(&[2, 3, 5])), p(&[1, 2, 3, 5]));
        assert_eq!(p(&[]).union(&p(&[7])), p(&[7]));
        assert_eq!(p(&[1]).union(&p(&[1])), p(&[1]));
    }

    #[test]
    fn intersection_merges() {
        assert_eq!(p(&[1, 2, 3]).intersection(&p(&[2, 3, 4])), p(&[2, 3]));
        assert_eq!(p(&[1]).intersection(&p(&[2])), Pattern::empty());
    }

    #[test]
    fn with_item_inserts_in_order() {
        assert_eq!(p(&[1, 3]).with_item(Item(2)), p(&[1, 2, 3]));
        assert_eq!(p(&[1, 3]).with_item(Item(0)), p(&[0, 1, 3]));
        assert_eq!(p(&[1, 3]).with_item(Item(5)), p(&[1, 3, 5]));
        assert_eq!(p(&[1, 3]).with_item(Item(3)), p(&[1, 3]));
    }

    #[test]
    fn k_minus_one_subsets_enumerates_all() {
        let subs: Vec<Pattern> = p(&[1, 2, 3]).k_minus_one_subsets().collect();
        assert_eq!(subs, vec![p(&[2, 3]), p(&[1, 3]), p(&[1, 2])]);
        let single: Vec<Pattern> = p(&[9]).k_minus_one_subsets().collect();
        assert_eq!(single, vec![Pattern::empty()]);
    }

    #[test]
    fn prefix_and_last() {
        let q = p(&[1, 2, 5]);
        assert_eq!(q.prefix(), &[Item(1), Item(2)]);
        assert_eq!(q.last(), Some(Item(5)));
    }

    #[test]
    fn lexicographic_order() {
        let mut v = vec![p(&[2]), p(&[1, 2]), p(&[1]), p(&[1, 3])];
        v.sort();
        assert_eq!(v, vec![p(&[1]), p(&[1, 2]), p(&[1, 3]), p(&[2])]);
    }

    #[test]
    fn contains_binary_search() {
        let q = p(&[1, 4, 9]);
        assert!(q.contains(Item(4)));
        assert!(!q.contains(Item(5)));
    }

    #[test]
    fn display_format() {
        assert_eq!(p(&[1, 2]).to_string(), "{i1,i2}");
        assert_eq!(Pattern::empty().to_string(), "{}");
    }

    #[test]
    fn from_iterator() {
        let q: Pattern = [Item(3), Item(1)].into_iter().collect();
        assert_eq!(q, p(&[1, 3]));
    }
}
