//! Triangle and common-neighbor enumeration.
//!
//! Edge cohesion (Definition 3.1) sums a term per triangle containing the
//! edge; a common neighbor `v_k` of `v_i, v_j` corresponds to exactly one
//! triangle `△ijk`. With sorted adjacency lists a linear merge finds the
//! common neighbors of an edge in `O(d(v_i) + d(v_j))`; the support,
//! k-truss and clustering routines of this crate are built on it.

use crate::graph::{UGraph, VertexId};

/// Calls `f` for every common neighbor of two sorted slices.
#[inline]
pub fn merge_common(a: &[VertexId], b: &[VertexId], mut f: impl FnMut(VertexId)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Number of triangles containing edge `(u, v)` — the *support* of the edge
/// in k-truss terminology.
pub fn edge_support(g: &UGraph, u: VertexId, v: VertexId) -> usize {
    let mut n = 0;
    merge_common(g.neighbors(u), g.neighbors(v), |_| n += 1);
    n
}

/// Total number of distinct triangles in the graph.
///
/// Each triangle `{u, v, w}` with `u < v < w` is counted once by scanning
/// the common neighbors `w > v` of each canonical edge `(u, v)`.
pub fn count_triangles(g: &UGraph) -> u64 {
    let mut total = 0u64;
    for (u, v) in g.edges() {
        merge_common(g.neighbors(u), g.neighbors(v), |w| {
            if w > v {
                total += 1;
            }
        });
    }
    total
}

/// Enumerates every triangle `(u, v, w)` with `u < v < w` exactly once.
pub fn for_each_triangle(g: &UGraph, mut f: impl FnMut(VertexId, VertexId, VertexId)) {
    for (u, v) in g.edges() {
        merge_common(g.neighbors(u), g.neighbors(v), |w| {
            if w > v {
                f(u, v, w);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UGraph;

    /// K4 on vertices 0..4.
    fn k4() -> UGraph {
        UGraph::from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn common_neighbors_of_k4_edge() {
        let g = k4();
        assert_eq!(edge_support(&g, 0, 1), 2);
    }

    #[test]
    fn no_common_neighbors_on_path() {
        let g = UGraph::from_edges([(0, 1), (1, 2)]);
        assert_eq!(edge_support(&g, 0, 1), 0);
    }

    #[test]
    fn k4_has_four_triangles() {
        assert_eq!(count_triangles(&k4()), 4);
    }

    #[test]
    fn triangle_graph_has_one() {
        let g = UGraph::from_edges([(0, 1), (1, 2), (0, 2)]);
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn path_has_zero_triangles() {
        let g = UGraph::from_edges([(0, 1), (1, 2), (2, 3)]);
        assert_eq!(count_triangles(&g), 0);
    }

    #[test]
    fn enumeration_matches_count_and_is_canonical() {
        let g = k4();
        let mut tris = Vec::new();
        for_each_triangle(&g, |u, v, w| {
            assert!(u < v && v < w);
            tris.push((u, v, w));
        });
        assert_eq!(tris.len() as u64, count_triangles(&g));
        let unique: std::collections::HashSet<_> = tris.iter().collect();
        assert_eq!(unique.len(), tris.len(), "no duplicates");
    }

    #[test]
    fn two_disjoint_triangles() {
        let g = UGraph::from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert_eq!(count_triangles(&g), 2);
    }

    #[test]
    fn merge_common_on_empty() {
        let mut hits = 0;
        merge_common(&[], &[1, 2, 3], |_| hits += 1);
        assert_eq!(hits, 0);
    }
}
