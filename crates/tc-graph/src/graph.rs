//! The core immutable undirected graph type.

use tc_util::HeapSize;

/// Vertex identifier. Vertices are dense `0..n` indices.
pub type VertexId = u32;

/// Canonical `(min, max)` edge key.
pub type EdgeKey = (VertexId, VertexId);

/// Incrementally collects edges, then freezes them into a [`UGraph`].
///
/// Self-loops are rejected at insertion; parallel edges are deduplicated at
/// [`GraphBuilder::build`] time. Vertex ids may be added in any order; the
/// vertex count is `max id + 1` unless raised with
/// [`GraphBuilder::ensure_vertex`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<EdgeKey>,
    min_vertices: u32,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder pre-sized for `edges` insertions.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            min_vertices: 0,
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Duplicate insertions are allowed and collapse at build time.
    ///
    /// # Panics
    /// Panics on the self-loop `u == v`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert_ne!(
            u, v,
            "self-loop ({u},{u}) rejected: database networks are simple graphs"
        );
        self.edges.push(crate::edge_key(u, v));
        self
    }

    /// Guarantees the built graph has at least `n` vertices, even if the
    /// trailing ones are isolated.
    pub fn ensure_vertex(&mut self, v: VertexId) -> &mut Self {
        self.min_vertices = self.min_vertices.max(v + 1);
        self
    }

    /// Freezes into an immutable [`UGraph`], deduplicating edges.
    pub fn build(mut self) -> UGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self
            .edges
            .iter()
            .map(|&(_, v)| v + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices) as usize;

        // Degree counting pass.
        let mut degree = vec![0u32; n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }

        // Prefix sums -> CSR offsets.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &degree {
            acc += d as usize;
            offsets.push(acc);
        }

        // Fill neighbor lists.
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; acc];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Neighbor lists must be sorted for merge intersection; inserting
        // from a sorted edge list leaves each `u`'s "forward" neighbors
        // sorted but interleaves "backward" ones, so sort per vertex.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }

        UGraph {
            offsets,
            neighbors,
            num_edges: self.edges.len(),
        }
    }
}

/// An immutable simple undirected graph in CSR form.
///
/// Neighbor lists are sorted, enabling `O(d(u) + d(v))` common-neighbor
/// merges and `O(log d(u))` adjacency tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<VertexId>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl UGraph {
    /// The empty graph.
    pub fn empty() -> Self {
        UGraph {
            offsets: vec![0],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Builds directly from an edge list (convenience for tests).
    pub fn from_edges(edges: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let mut b = GraphBuilder::new();
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices (`0..n`), including isolated ones.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Adjacency test by binary search: `O(log d(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        // Search the smaller list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates over canonical `(u, v)` edges with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        (0..self.num_vertices() as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterates over vertices with degree `> 0`.
    pub fn non_isolated_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).filter(move |&v| self.degree(v) > 0)
    }

    /// Sum of squared degrees — the paper's MPTD complexity measure
    /// `O(Σ d²(v))`, used by the harness to characterise workloads.
    pub fn degree_square_sum(&self) -> u64 {
        (0..self.num_vertices() as u32)
            .map(|v| (self.degree(v) as u64).pow(2))
            .sum()
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The subgraph induced by `vertices`, with vertices **renumbered** to
    /// `0..vertices.len()` in the given order. Returns the new graph and the
    /// mapping `new id -> old id`.
    ///
    /// Duplicate ids in `vertices` are ignored (first occurrence wins).
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (UGraph, Vec<VertexId>) {
        let mut old_to_new: tc_util::FxHashMap<VertexId, u32> =
            tc_util::hash::fx_map_with_capacity(vertices.len());
        let mut new_to_old = Vec::with_capacity(vertices.len());
        for &v in vertices {
            if let std::collections::hash_map::Entry::Vacant(e) = old_to_new.entry(v) {
                e.insert(new_to_old.len() as u32);
                new_to_old.push(v);
            }
        }
        let mut b = GraphBuilder::new();
        for (&old_u, &new_u) in &old_to_new {
            for &old_v in self.neighbors(old_u) {
                if old_u < old_v {
                    if let Some(&new_v) = old_to_new.get(&old_v) {
                        b.add_edge(new_u, new_v);
                    }
                }
            }
        }
        if let Some(last) = new_to_old.len().checked_sub(1) {
            b.ensure_vertex(last as u32);
        }
        (b.build(), new_to_old)
    }
}

impl HeapSize for UGraph {
    fn heap_size(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.neighbors.capacity() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> UGraph {
        // 0-1-2 triangle, 2-3 tail, 4 isolated (via ensure_vertex).
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(0, 2)
            .add_edge(2, 3);
        b.ensure_vertex(4);
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn neighbors_sorted_and_correct() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn has_edge_symmetric() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 100));
        assert!(!g.has_edge(100, 0));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = UGraph::from_edges([(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        GraphBuilder::new().add_edge(3, 3);
    }

    #[test]
    fn edges_iterator_canonical() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = UGraph::empty();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn builder_only_isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.ensure_vertex(9);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn non_isolated_vertices_skips_isolated() {
        let g = triangle_plus_tail();
        let vs: Vec<_> = g.non_isolated_vertices().collect();
        assert_eq!(vs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn degree_square_sum_matches_manual() {
        let g = triangle_plus_tail();
        // degrees: 2,2,3,1,0 -> 4+4+9+1 = 18
        assert_eq!(g.degree_square_sum(), 18);
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g = triangle_plus_tail();
        let (sub, map) = g.induced_subgraph(&[2, 0, 1]);
        assert_eq!(map, vec![2, 0, 1]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3); // the triangle survives
        assert!(sub.has_edge(0, 1)); // old (2,0)
        assert!(sub.has_edge(0, 2)); // old (2,1)
        assert!(sub.has_edge(1, 2)); // old (0,1)
    }

    #[test]
    fn induced_subgraph_drops_outside_edges() {
        let g = triangle_plus_tail();
        let (sub, map) = g.induced_subgraph(&[0, 3]);
        assert_eq!(map, vec![0, 3]);
        assert_eq!(sub.num_edges(), 0);
        assert_eq!(sub.num_vertices(), 2);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = triangle_plus_tail();
        let (sub, map) = g.induced_subgraph(&[1, 1, 2]);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.num_edges(), 1);
    }

    #[test]
    fn induced_subgraph_empty_selection() {
        let g = triangle_plus_tail();
        let (sub, map) = g.induced_subgraph(&[]);
        assert!(map.is_empty());
        assert_eq!(sub.num_vertices(), 0);
    }

    #[test]
    fn max_degree() {
        assert_eq!(triangle_plus_tail().max_degree(), 3);
        assert_eq!(UGraph::empty().max_degree(), 0);
    }
}
