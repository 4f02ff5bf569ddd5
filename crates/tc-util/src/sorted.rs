//! Linear merges over ascending slices.
//!
//! Sorted `Vec`s are this workspace's set representation — truss edge
//! lists, community vertex lists, inverted-index postings — and every set
//! operation on them is the same two-finger walk. It lives here once.
//! (Keyed merges that carry a payload per element, such as the triangle
//! merge of the peeling engine, stay with their payloads.)

use std::cmp::Ordering;

/// Calls `f` on every element present in both ascending slices, ascending.
#[inline]
fn for_each_common<T: Ord + Copy>(a: &[T], b: &[T], mut f: impl FnMut(T)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// The elements common to two ascending slices, ascending.
pub fn intersect<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(a, b, &mut out);
    out
}

/// Appends [`intersect`]`(a, b)` to `out`.
pub fn intersect_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    for_each_common(a, b, |x| out.push(x));
}

/// How many elements two ascending slices have in common.
pub fn common_count<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
    let mut n = 0;
    for_each_common(a, b, |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_and_count_agree() {
        let a = [(0u32, 1u32), (0, 2), (1, 2), (3, 4)];
        let b = [(0u32, 2u32), (1, 2), (2, 3), (3, 4), (5, 6)];
        assert_eq!(intersect(&a, &b), vec![(0, 2), (1, 2), (3, 4)]);
        assert_eq!(intersect(&b, &a), intersect(&a, &b));
        let mut out = vec![(9, 9)];
        intersect_into(&a, &b, &mut out);
        assert_eq!(out, [&[(9, 9)][..], &intersect(&a, &b)].concat());
        assert_eq!(common_count(&a, &b), 3);
        assert_eq!(common_count(&a, &a), a.len());
    }

    #[test]
    fn disjoint_and_empty() {
        assert!(intersect(&[1, 3, 5], &[2, 4, 6]).is_empty());
        assert!(intersect::<u32>(&[], &[1, 2]).is_empty());
        assert_eq!(common_count::<u32>(&[1, 2], &[]), 0);
    }
}
