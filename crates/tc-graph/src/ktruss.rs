//! Classic k-truss detection (Cohen 2008) and truss decomposition.
//!
//! A *k-truss* is a subgraph in which every edge is contained in at least
//! `k - 2` triangles **of the subgraph**. The paper (§3.2) observes that a
//! pattern truss `C_p(α)` with all vertex frequencies equal to 1 and
//! `α = k - 3` is exactly a k-truss; our tests use this module as an
//! independent oracle for MPTD.
//!
//! Peeling semantics: an edge is *removed* at the moment it is popped from
//! the work queue. A triangle is destroyed exactly once — by the first of
//! its three edges to be popped — at which point the supports of the other
//! two edges are decremented. (Marking edges dead at enqueue time instead
//! double-counts or skips triangles whose edges are queued together.)

use crate::graph::{EdgeKey, UGraph, VertexId};
use crate::triangles::merge_common;
use std::collections::VecDeque;
use tc_util::{FxHashMap, FxHashSet};

/// Initial per-edge supports (triangle counts) of the whole graph.
fn initial_supports(g: &UGraph) -> FxHashMap<EdgeKey, usize> {
    let mut support: FxHashMap<EdgeKey, usize> = tc_util::hash::fx_map_with_capacity(g.num_edges());
    for (u, v) in g.edges() {
        let mut s = 0;
        merge_common(g.neighbors(u), g.neighbors(v), |_| s += 1);
        support.insert((u, v), s);
    }
    support
}

/// Computes the maximal k-truss of `g`: the edge set in which every edge has
/// support `≥ k - 2` within the retained subgraph. Returns canonical edges
/// in sorted order.
///
/// `k ≤ 2` returns all edges (every edge is trivially in a 2-truss).
pub fn k_truss(g: &UGraph, k: usize) -> Vec<EdgeKey> {
    let threshold = k.saturating_sub(2);
    let mut support = initial_supports(g);

    let mut removed: FxHashSet<EdgeKey> = tc_util::hash::fx_set_with_capacity(16);
    let mut queued: FxHashSet<EdgeKey> = tc_util::hash::fx_set_with_capacity(16);
    let mut queue: VecDeque<EdgeKey> = VecDeque::new();
    for (&e, &s) in &support {
        if s < threshold {
            queued.insert(e);
            queue.push_back(e);
        }
    }

    while let Some((u, v)) = queue.pop_front() {
        removed.insert((u, v));
        merge_common(g.neighbors(u), g.neighbors(v), |w| {
            let e1 = crate::edge_key(u, w);
            let e2 = crate::edge_key(v, w);
            // Triangle (u,v,w) is destroyed *now* only if it still existed:
            // neither of the other two edges was popped earlier.
            if removed.contains(&e1) || removed.contains(&e2) {
                return;
            }
            for other in [e1, e2] {
                let s = support.get_mut(&other).expect("edge in graph");
                *s -= 1;
                if *s < threshold && queued.insert(other) {
                    queue.push_back(other);
                }
            }
        });
    }

    let mut kept: Vec<EdgeKey> = support
        .keys()
        .filter(|e| !removed.contains(*e))
        .copied()
        .collect();
    kept.sort_unstable();
    kept
}

/// Truss decomposition: for every edge, the largest `k` such that the edge
/// belongs to the maximal k-truss (its *truss number*).
///
/// Peeling variant of Wang & Cheng (VLDB 2012): levels `k = 2, 3, …`; at
/// level `k` every surviving edge with support `≤ k - 2` is removed
/// (cascading) and assigned truss number `k`.
pub fn truss_numbers(g: &UGraph) -> FxHashMap<EdgeKey, usize> {
    let mut support = initial_supports(g);
    let total = support.len();

    let mut truss: FxHashMap<EdgeKey, usize> = tc_util::hash::fx_map_with_capacity(total);
    let mut removed: FxHashSet<EdgeKey> = tc_util::hash::fx_set_with_capacity(total);
    let mut k = 2usize;

    while removed.len() < total {
        let mut queued: FxHashSet<EdgeKey> = tc_util::hash::fx_set_with_capacity(16);
        let mut queue: VecDeque<EdgeKey> = VecDeque::new();
        for (&e, &s) in &support {
            if !removed.contains(&e) && s <= k - 2 {
                queued.insert(e);
                queue.push_back(e);
            }
        }
        if queue.is_empty() {
            k += 1;
            continue;
        }
        while let Some((u, v)) = queue.pop_front() {
            removed.insert((u, v));
            truss.insert((u, v), k);
            merge_common(g.neighbors(u), g.neighbors(v), |w| {
                let e1 = crate::edge_key(u, w);
                let e2 = crate::edge_key(v, w);
                if removed.contains(&e1) || removed.contains(&e2) {
                    return;
                }
                for other in [e1, e2] {
                    let s = support.get_mut(&other).expect("edge in graph");
                    *s = s.saturating_sub(1);
                    if *s <= k - 2 && queued.insert(other) {
                        queue.push_back(other);
                    }
                }
            });
        }
    }
    truss
}

/// Words of the bitmap [`edge_set_vertices`] keeps on the stack: ranges of
/// up to 4 096 ids mark vertices without a heap allocation.
const STACK_WORDS: usize = 64;

/// Vertices spanned by an edge set (sorted, deduplicated).
///
/// Two regimes, chosen by the input alone. When the endpoints' id range
/// `[lo, hi]` fits in at most `|E|` 64-bit words, each endpoint sets its
/// bit in a bitmap over the range and the set bits are read back in
/// ascending order into a list of exactly their count: O(|E| + range /
/// 64), no comparison sort. That bitmap takes at most `8·|E|` bytes — no
/// more than the `2·|E|` `u32` endpoint buffer the other regime sorts — so
/// marking never costs more memory than sorting would; up to 64 words
/// (4 096 ids) it lives on the stack, so the list is the only allocation,
/// as in the other regime. A wider range (few edges over
/// far-apart ids) takes the other regime: collect the `2·|E|` endpoints,
/// sort and deduplicate. Both return the same list.
pub fn edge_set_vertices(edges: &[EdgeKey]) -> Vec<VertexId> {
    let Some(&(first, _)) = edges.first() else {
        return Vec::new();
    };
    let (mut lo, mut hi) = (first, first);
    for &(u, v) in edges {
        lo = lo.min(u).min(v);
        hi = hi.max(u).max(v);
    }
    let words = ((hi - lo) as usize >> 6) + 1;
    if words > edges.len() {
        let mut vs = Vec::with_capacity(2 * edges.len());
        vs.extend(edges.iter().flat_map(|&(u, v)| [u, v]));
        vs.sort_unstable();
        vs.dedup();
        return vs;
    }
    let (mut stack, mut heap) = ([0u64; STACK_WORDS], Vec::new());
    let bits = if words <= STACK_WORDS {
        &mut stack[..words]
    } else {
        heap.resize(words, 0u64);
        &mut heap[..]
    };
    for &(u, v) in edges {
        for x in [u - lo, v - lo] {
            bits[x as usize >> 6] |= 1 << (x & 63);
        }
    }
    let mut vs = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
    for (i, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            vs.push(lo + (i as u32) * 64 + word.trailing_zeros());
            word &= word - 1;
        }
    }
    vs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// K5 with a pendant path attached.
    fn k5_plus_path() -> UGraph {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        edges.push((4, 5));
        edges.push((5, 6));
        UGraph::from_edges(edges)
    }

    #[test]
    fn k5_is_a_5truss() {
        let g = k5_plus_path();
        let t5 = k_truss(&g, 5);
        assert_eq!(t5.len(), 10, "all K5 edges survive k=5");
        assert!(t5.iter().all(|&(u, v)| u < 5 && v < 5));
    }

    #[test]
    fn k5_is_not_a_6truss() {
        let g = k5_plus_path();
        assert!(k_truss(&g, 6).is_empty());
    }

    #[test]
    fn pendant_edges_survive_only_k2() {
        let g = k5_plus_path();
        let t2 = k_truss(&g, 2);
        assert_eq!(t2.len(), g.num_edges());
        let t3 = k_truss(&g, 3);
        assert!(!t3.contains(&(4, 5)));
        assert!(!t3.contains(&(5, 6)));
    }

    #[test]
    fn triangle_is_3truss() {
        let g = UGraph::from_edges([(0, 1), (1, 2), (0, 2)]);
        assert_eq!(k_truss(&g, 3).len(), 3);
        assert!(k_truss(&g, 4).is_empty());
    }

    #[test]
    fn cascade_removal() {
        // Two triangles sharing an edge: a 3-truss, but not a 4-truss —
        // removing any edge cascades.
        let g = UGraph::from_edges([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(k_truss(&g, 3).len(), 5);
        assert!(k_truss(&g, 4).is_empty());
    }

    /// The regression the property tests found: two queued-together edges
    /// sharing a triangle must destroy that triangle exactly once.
    #[test]
    fn shared_triangle_among_queued_edges() {
        // Vertices 2,5 plus two common neighbors; constructed so multiple
        // low-support edges enter the queue in the same batch.
        let g = UGraph::from_edges([(2, 5), (2, 6), (5, 6), (2, 7), (5, 7), (6, 7)]);
        // K4 on {2,5,6,7}: a 4-truss.
        assert_eq!(k_truss(&g, 4).len(), 6);
        let tn = truss_numbers(&g);
        assert!(tn.values().all(|&t| t == 4));
    }

    #[test]
    fn truss_numbers_on_k5_plus_path() {
        let g = k5_plus_path();
        let t = truss_numbers(&g);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                assert_eq!(t[&(u, v)], 5, "K5 edge ({u},{v})");
            }
        }
        assert_eq!(t[&(4, 5)], 2);
        assert_eq!(t[&(5, 6)], 2);
    }

    #[test]
    fn truss_numbers_consistent_with_ktruss() {
        let g = k5_plus_path();
        let t = truss_numbers(&g);
        for k in 2..=6usize {
            let direct: std::collections::BTreeSet<_> = k_truss(&g, k).into_iter().collect();
            let derived: std::collections::BTreeSet<_> = t
                .iter()
                .filter(|&(_, &tn)| tn >= k)
                .map(|(&e, _)| e)
                .collect();
            assert_eq!(direct, derived, "k = {k}");
        }
    }

    #[test]
    fn edge_set_vertices_dedups() {
        let vs = edge_set_vertices(&[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(vs, vec![0, 1, 2]);
        assert!(edge_set_vertices(&[]).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = UGraph::empty();
        assert!(k_truss(&g, 3).is_empty());
        assert!(truss_numbers(&g).is_empty());
    }
}
