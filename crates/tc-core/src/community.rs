//! Theme communities — Definition 3.5.
//!
//! A theme community is a maximal connected subgraph of a maximal pattern
//! truss. Extraction is a connected-components pass over the truss edges.

use crate::truss::PatternTruss;
use tc_graph::{EdgeKey, VertexId};
use tc_txdb::Pattern;
use tc_util::HeapSize;

/// One theme community: a connected subgraph whose vertices all exhibit the
/// theme `pattern` with positive frequency and whose edges all exceeded the
/// cohesion threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThemeCommunity {
    /// The theme.
    pub pattern: Pattern,
    /// Member vertices, sorted.
    pub vertices: Vec<VertexId>,
    /// Member edges, canonical and sorted.
    pub edges: Vec<EdgeKey>,
}

impl ThemeCommunity {
    /// Number of member vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of member edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Vertex-set overlap with another community (shared vertex count).
    /// Communities of different themes may overlap arbitrarily (§7.4).
    pub fn vertex_overlap(&self, other: &ThemeCommunity) -> usize {
        tc_util::sorted::common_count(&self.vertices, &other.vertices)
    }
}

impl HeapSize for ThemeCommunity {
    fn heap_size(&self) -> usize {
        self.pattern.heap_size()
            + self.vertices.capacity() * std::mem::size_of::<VertexId>()
            + self.edges.capacity() * std::mem::size_of::<EdgeKey>()
    }
}

/// Splits a maximal pattern truss into its theme communities (maximal
/// connected subgraphs). Communities are ordered by smallest member vertex.
pub fn extract_communities(truss: &PatternTruss) -> Vec<ThemeCommunity> {
    if truss.is_empty() {
        return Vec::new();
    }
    let verts = &truss.vertices;
    let mut uf = tc_graph::UnionFind::new(verts.len());
    let local = |v: VertexId| verts.binary_search(&v).expect("endpoint in vertex list") as u32;
    for &(u, v) in &truss.edges {
        uf.union(local(u), local(v));
    }
    // Group edges and vertices by component root.
    let mut comm_of_root: tc_util::FxHashMap<u32, usize> = tc_util::FxHashMap::default();
    let mut communities: Vec<ThemeCommunity> = Vec::new();
    for (i, &v) in verts.iter().enumerate() {
        let root = uf.find(i as u32);
        let next = communities.len();
        let idx = *comm_of_root.entry(root).or_insert(next);
        if idx == communities.len() {
            communities.push(ThemeCommunity {
                pattern: truss.pattern.clone(),
                vertices: Vec::new(),
                edges: Vec::new(),
            });
        }
        communities[idx].vertices.push(v);
    }
    for &(u, v) in &truss.edges {
        let root = uf.find(local(u));
        let idx = comm_of_root[&root];
        communities[idx].edges.push((u, v));
    }
    communities
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_txdb::Item;

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| Item(i)).collect())
    }

    #[test]
    fn single_component() {
        let t = PatternTruss::from_edges(pat(&[0]), 0.0, vec![(0, 1), (1, 2), (0, 2)]);
        let cs = extract_communities(&t);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].vertices, vec![0, 1, 2]);
        assert_eq!(cs[0].num_edges(), 3);
        assert_eq!(cs[0].pattern, pat(&[0]));
    }

    #[test]
    fn two_components_like_figure1b() {
        // Paper Example 3.6: {v1..v5} and {v7,v8,v9} are two communities of
        // the same maximal pattern truss.
        let t = PatternTruss::from_edges(
            pat(&[0]),
            0.1,
            vec![
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (6, 7),
                (7, 8),
                (6, 8),
            ],
        );
        let cs = extract_communities(&t);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(cs[1].vertices, vec![6, 7, 8]);
        assert_eq!(cs[0].num_edges(), 6);
        assert_eq!(cs[1].num_edges(), 3);
    }

    #[test]
    fn empty_truss_no_communities() {
        let t = PatternTruss::empty(pat(&[0]), 0.0);
        assert!(extract_communities(&t).is_empty());
    }

    #[test]
    fn edges_partitioned_exactly() {
        let t =
            PatternTruss::from_edges(pat(&[1]), 0.0, vec![(0, 1), (1, 2), (5, 6), (6, 7), (5, 7)]);
        let cs = extract_communities(&t);
        let total_edges: usize = cs.iter().map(ThemeCommunity::num_edges).sum();
        let total_verts: usize = cs.iter().map(ThemeCommunity::num_vertices).sum();
        assert_eq!(total_edges, t.num_edges());
        assert_eq!(total_verts, t.num_vertices());
    }

    #[test]
    fn overlap_counts_shared_vertices() {
        let a = ThemeCommunity {
            pattern: pat(&[0]),
            vertices: vec![1, 2, 3, 5],
            edges: vec![],
        };
        let b = ThemeCommunity {
            pattern: pat(&[1]),
            vertices: vec![2, 3, 4],
            edges: vec![],
        };
        assert_eq!(a.vertex_overlap(&b), 2);
        assert_eq!(b.vertex_overlap(&a), 2);
        assert_eq!(a.vertex_overlap(&a), 4);
    }
}
