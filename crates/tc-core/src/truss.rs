//! Maximal pattern trusses (Definitions 3.3-3.4).

use tc_graph::{EdgeKey, VertexId};
use tc_txdb::Pattern;
use tc_util::HeapSize;

/// A maximal pattern truss `C*_p(α)`: the union of all pattern trusses of a
/// theme network at threshold `α`. Not necessarily connected — theme
/// communities are its connected components.
///
/// Edges are canonical `(min, max)` **global** vertex pairs, sorted; the
/// vertex list is derived (sorted, deduplicated endpoints). An empty edge
/// set means `C*_p(α) = ∅`.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternTruss {
    /// The pattern `p` whose theme network this truss lives in.
    pub pattern: Pattern,
    /// The cohesion threshold `α` the truss was computed at.
    pub alpha: f64,
    /// `E*_p(α)`, canonical and sorted.
    pub edges: Vec<EdgeKey>,
    /// `V*_p(α)`, sorted — exactly the endpoints of `edges`.
    pub vertices: Vec<VertexId>,
}

impl PatternTruss {
    /// Assembles a truss from its edge set, deriving the vertex set.
    pub fn from_edges(pattern: Pattern, alpha: f64, mut edges: Vec<EdgeKey>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        Self::from_canonical_edges(pattern, alpha, edges)
    }

    /// [`PatternTruss::from_edges`] for an edge list the caller already
    /// holds sorted and duplicate-free — Equation 1's reconstruction is
    /// one: it would only be sorted and scanned a second time.
    pub(crate) fn from_canonical_edges(pattern: Pattern, alpha: f64, edges: Vec<EdgeKey>) -> Self {
        let vertices = tc_graph::ktruss::edge_set_vertices(&edges);
        PatternTruss {
            pattern,
            alpha,
            edges,
            vertices,
        }
    }

    /// The empty truss for `pattern` at `alpha`.
    pub fn empty(pattern: Pattern, alpha: f64) -> Self {
        PatternTruss {
            pattern,
            alpha,
            edges: Vec::new(),
            vertices: Vec::new(),
        }
    }

    /// `|E*_p(α)|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `|V*_p(α)|`.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// `true` iff the truss is empty (pattern is *unqualified*, §5.2).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Membership test for a vertex.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Membership test for a canonical edge.
    pub fn contains_edge(&self, e: EdgeKey) -> bool {
        self.edges.binary_search(&e).is_ok()
    }

    /// `true` iff `self`'s subgraph is contained in `other`'s
    /// (Theorem 5.1's `⊆` relation).
    pub fn is_subgraph_of(&self, other: &PatternTruss) -> bool {
        self.edges.iter().all(|&e| other.contains_edge(e))
    }

    /// Edge-set intersection with another truss — the TCFI pruning space
    /// (Proposition 5.3). Linear merge over the sorted edge lists.
    pub fn intersect_edges(&self, other: &PatternTruss) -> Vec<EdgeKey> {
        tc_util::sorted::intersect(&self.edges, &other.edges)
    }
}

impl HeapSize for PatternTruss {
    fn heap_size(&self) -> usize {
        self.pattern.heap_size()
            + self.edges.capacity() * std::mem::size_of::<EdgeKey>()
            + self.vertices.capacity() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_txdb::Item;

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| Item(i)).collect())
    }

    #[test]
    fn from_edges_derives_vertices() {
        let t = PatternTruss::from_edges(
            pat(&[0]),
            0.1,
            vec![(2, 1), (0, 1)]
                .into_iter()
                .map(|(a, b)| tc_graph::edge_key(a, b))
                .collect(),
        );
        assert_eq!(t.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(t.vertices, vec![0, 1, 2]);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.num_vertices(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_truss() {
        let t = PatternTruss::empty(pat(&[1]), 0.5);
        assert!(t.is_empty());
        assert_eq!(t.num_vertices(), 0);
    }

    #[test]
    fn membership() {
        let t = PatternTruss::from_edges(pat(&[0]), 0.0, vec![(0, 1), (1, 2)]);
        assert!(t.contains_vertex(1));
        assert!(!t.contains_vertex(5));
        assert!(t.contains_edge((0, 1)));
        assert!(!t.contains_edge((0, 2)));
    }

    #[test]
    fn subgraph_relation() {
        let small = PatternTruss::from_edges(pat(&[0, 1]), 0.0, vec![(0, 1)]);
        let big = PatternTruss::from_edges(pat(&[0]), 0.0, vec![(0, 1), (1, 2)]);
        assert!(small.is_subgraph_of(&big));
        assert!(!big.is_subgraph_of(&small));
        assert!(big.is_subgraph_of(&big));
    }

    #[test]
    fn empty_is_subgraph_of_everything() {
        let e = PatternTruss::empty(pat(&[3]), 0.0);
        let big = PatternTruss::from_edges(pat(&[0]), 0.0, vec![(0, 1)]);
        assert!(e.is_subgraph_of(&big));
        assert!(e.is_subgraph_of(&e));
    }

    #[test]
    fn intersection_merge() {
        let a = PatternTruss::from_edges(pat(&[0]), 0.0, vec![(0, 1), (1, 2), (2, 3)]);
        let b = PatternTruss::from_edges(pat(&[1]), 0.0, vec![(1, 2), (2, 3), (3, 4)]);
        assert_eq!(a.intersect_edges(&b), vec![(1, 2), (2, 3)]);
        let disjoint = PatternTruss::from_edges(pat(&[2]), 0.0, vec![(7, 8)]);
        assert!(a.intersect_edges(&disjoint).is_empty());
    }
}
