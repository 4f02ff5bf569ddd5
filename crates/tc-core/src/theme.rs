//! Theme networks `G_p` (paper §3.1).
//!
//! Given a pattern `p`, the theme network is the subgraph of `G` induced by
//! the vertices with `f_i(p) > 0`, each annotated with that frequency. The
//! miners materialise theme networks as compact local structures (dense
//! `u32` ids, sorted adjacency, parallel frequency array) ready for the
//! peeling engine.
//!
//! The §8 extension — databases on the *edges* — changes one thing about a
//! theme network: what carries `f(p)`, and so what a triangle weighs. A
//! [`ThemeNetwork`] therefore holds either kind of [`Frequencies`], and
//! [`ThemeSource`] is all the enumeration code (TCFI, the TC-Tree builder)
//! asks of a network of either kind.

use crate::network::DatabaseNetwork;
use tc_graph::{EdgeKey, GraphBuilder, UGraph, VertexId};
use tc_txdb::{Item, Pattern};

/// The pattern frequencies of a theme network, by what holds the
/// transaction databases.
#[derive(Debug, Clone)]
pub enum Frequencies {
    /// `f_i(p)` per local vertex id (strictly positive) — the paper's
    /// setting: a triangle weighs `min(f_i, f_j, f_k)`.
    Vertex(Vec<f64>),
    /// `f_ij(p)` per edge (strictly positive), in [`UGraph::edges`] order —
    /// the §8 setting: a triangle weighs `min(f_ij, f_ik, f_jk)`.
    Edge(Vec<f64>),
}

/// What set enumeration over patterns needs from a network: the level-1
/// items, and the theme network of a candidate pattern — over the whole
/// network, or inside the intersection of its parents' trusses (§5.3).
pub trait ThemeSource: Sync {
    /// The items occurring in at least one database, ascending.
    fn items_in_use(&self) -> Vec<Item>;

    /// `G_p` over the whole network.
    fn theme(&self, pattern: &Pattern) -> ThemeNetwork;

    /// `G_p` restricted to `edges` (canonical global keys, sorted).
    fn theme_within(&self, pattern: &Pattern, edges: &[EdgeKey]) -> ThemeNetwork;
}

impl ThemeSource for DatabaseNetwork {
    fn items_in_use(&self) -> Vec<Item> {
        DatabaseNetwork::items_in_use(self)
    }

    fn theme(&self, pattern: &Pattern) -> ThemeNetwork {
        ThemeNetwork::induce(self, pattern)
    }

    fn theme_within(&self, pattern: &Pattern, edges: &[EdgeKey]) -> ThemeNetwork {
        ThemeNetwork::induce_from_edges(self, pattern, edges)
    }
}

/// A materialised theme network with local vertex ids.
#[derive(Debug, Clone)]
pub struct ThemeNetwork {
    pattern: Pattern,
    /// Local-id graph over `0..vertices.len()`.
    graph: UGraph,
    /// Local id → global vertex id (sorted ascending).
    vertices: Vec<VertexId>,
    freqs: Frequencies,
}

impl ThemeNetwork {
    /// Induces `G_p` from the full database network.
    ///
    /// Candidate vertices come from the inverted item index; each candidate's
    /// exact frequency is computed from its vertex database and zero-frequency
    /// candidates (items present but never co-occurring) are dropped.
    pub fn induce(network: &DatabaseNetwork, pattern: &Pattern) -> ThemeNetwork {
        let (vertices, freqs): (Vec<VertexId>, Vec<f64>) = if pattern.len() == 1 {
            // Fast path: frequencies are already in the index.
            network
                .vertices_with_item(pattern.items()[0])
                .iter()
                .copied()
                .unzip()
        } else {
            network
                .candidate_vertices(pattern)
                .into_iter()
                .filter_map(|v| {
                    let f = network.frequency(v, pattern);
                    (f > 0.0).then_some((v, f))
                })
                .unzip()
        };
        let edges = induce_edges(network, &vertices);
        Self::from_parts(pattern, vertices, Frequencies::Vertex(freqs), &edges)
    }

    /// Induces `G_p` by scanning **every** vertex database — the literal
    /// Algorithm 3 line 6, *"Induce `G_pk` from `G`"*.
    ///
    /// This is the induction cost model of the paper's TCFA and TCS
    /// baselines: `Ω(|V|)` pattern-frequency probes per candidate, which is
    /// precisely the work TCFI's intersection trick (§5.3) avoids.
    /// [`ThemeNetwork::induce`] is an index-accelerated variant that would
    /// blur that comparison; the baselines must not use it.
    pub fn induce_scan(network: &DatabaseNetwork, pattern: &Pattern) -> ThemeNetwork {
        let mut vertices = Vec::new();
        let mut freqs = Vec::new();
        for v in 0..network.num_vertices() as VertexId {
            let f = network.frequency(v, pattern);
            if f > 0.0 {
                vertices.push(v);
                freqs.push(f);
            }
        }
        let edges = induce_edges(network, &vertices);
        Self::from_parts(pattern, vertices, Frequencies::Vertex(freqs), &edges)
    }

    /// Induces `G_p` restricted to a subgraph given as an explicit edge set
    /// over **global** vertex ids — the TCFI path (§5.3), where the edge set
    /// is the intersection of two parents' maximal pattern trusses.
    pub fn induce_from_edges(
        network: &DatabaseNetwork,
        pattern: &Pattern,
        edges: &[EdgeKey],
    ) -> ThemeNetwork {
        let span = tc_graph::ktruss::edge_set_vertices(edges);
        let mut vertices = Vec::with_capacity(span.len());
        let mut freqs = Vec::with_capacity(span.len());
        for v in span {
            let f = network.frequency(v, pattern);
            if f > 0.0 {
                vertices.push(v);
                freqs.push(f);
            }
        }
        // Keep only edges whose both endpoints kept positive frequency.
        let kept: Vec<EdgeKey> = edges
            .iter()
            .filter(|&&(u, v)| {
                vertices.binary_search(&u).is_ok() && vertices.binary_search(&v).is_ok()
            })
            .copied()
            .collect();
        Self::from_parts(pattern, vertices, Frequencies::Vertex(freqs), &kept)
    }

    /// The theme network of an edge database network (§8): `edges` are its
    /// edges with `f_e(p) > 0` as sorted canonical global keys, `freqs`
    /// those frequencies in the same order.
    pub(crate) fn from_themed_edges(
        pattern: &Pattern,
        edges: &[EdgeKey],
        freqs: Vec<f64>,
    ) -> ThemeNetwork {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "sorted edges");
        debug_assert_eq!(edges.len(), freqs.len());
        let vertices = tc_graph::ktruss::edge_set_vertices(edges);
        // Local ids ascend with global ids, so `graph.edges()` enumerates
        // `edges` in the order given and `freqs` lines up with it.
        Self::from_parts(pattern, vertices, Frequencies::Edge(freqs), edges)
    }

    fn from_parts(
        pattern: &Pattern,
        vertices: Vec<VertexId>,
        freqs: Frequencies,
        global_edges: &[EdgeKey],
    ) -> ThemeNetwork {
        debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]), "sorted vertices");
        let mut gb = GraphBuilder::with_capacity(global_edges.len());
        for &(u, v) in global_edges {
            let lu = vertices
                .binary_search(&u)
                .expect("edge endpoint in vertex set") as u32;
            let lv = vertices
                .binary_search(&v)
                .expect("edge endpoint in vertex set") as u32;
            gb.add_edge(lu, lv);
        }
        if let Some(last) = vertices.len().checked_sub(1) {
            gb.ensure_vertex(last as u32);
        }
        ThemeNetwork {
            pattern: pattern.clone(),
            graph: gb.build(),
            vertices,
            freqs,
        }
    }

    /// The inducing pattern `p`.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The local-id graph.
    pub fn graph(&self) -> &UGraph {
        &self.graph
    }

    /// Number of vertices of `G_p`.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges of `G_p`.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// `true` when the theme network has no edges (no truss can exist).
    pub fn is_trivial(&self) -> bool {
        self.graph.num_edges() == 0
    }

    /// Global id of local vertex `local`.
    #[inline]
    pub fn global_id(&self, local: u32) -> VertexId {
        self.vertices[local as usize]
    }

    /// All global vertex ids (sorted).
    pub fn global_vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The pattern frequencies, on vertices or on edges.
    pub fn frequencies(&self) -> &Frequencies {
        &self.freqs
    }

    /// Translates a local edge to global ids (canonical order).
    #[inline]
    pub fn global_edge(&self, e: (u32, u32)) -> EdgeKey {
        tc_graph::edge_key(self.global_id(e.0), self.global_id(e.1))
    }
}

/// Edges of the full network whose endpoints both lie in `vertices`
/// (sorted global ids).
fn induce_edges(network: &DatabaseNetwork, vertices: &[VertexId]) -> Vec<EdgeKey> {
    let g = network.graph();
    let mut out = Vec::new();
    for &u in vertices {
        for &v in g.neighbors(u) {
            if u < v && vertices.binary_search(&v).is_ok() {
                out.push((u, v));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DatabaseNetworkBuilder;

    /// Figure 1-style toy: v0..v4 pentagon-ish cluster carrying "p", v5 with
    /// zero frequency, v6..v8 a separate triangle carrying "p".
    fn toy() -> (DatabaseNetwork, Pattern) {
        let mut b = DatabaseNetworkBuilder::new();
        let p = b.intern_item("p");
        let other = b.intern_item("other");
        for v in [0u32, 1, 2, 3, 4] {
            // f = 0.5
            b.add_transaction(v, &[p]);
            b.add_transaction(v, &[other]);
        }
        b.add_transaction(5, &[other]); // f_5(p) = 0
        for v in [6u32, 7, 8] {
            b.add_transaction(v, &[p]); // f = 1.0
        }
        // Cluster edges.
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)] {
            b.add_edge(u, v);
        }
        // Bridge through the zero-frequency vertex 5.
        b.add_edge(4, 5);
        b.add_edge(5, 6);
        // Second triangle.
        b.add_edge(6, 7);
        b.add_edge(7, 8);
        b.add_edge(8, 6);
        let net = b.build().unwrap();
        let pat = Pattern::singleton(net.item_space().get("p").unwrap());
        (net, pat)
    }

    #[test]
    fn induce_drops_zero_frequency_vertices() {
        let (net, pat) = toy();
        let t = ThemeNetwork::induce(&net, &pat);
        assert_eq!(t.global_vertices(), &[0, 1, 2, 3, 4, 6, 7, 8]);
        assert_eq!(t.num_vertices(), 8);
        // Edges through v5 vanish: (4,5), (5,6).
        assert_eq!(t.num_edges(), 9);
    }

    #[test]
    fn frequencies_carried() {
        let (net, pat) = toy();
        let t = ThemeNetwork::induce(&net, &pat);
        let Frequencies::Vertex(freqs) = t.frequencies() else {
            panic!("a vertex network's theme carries vertex frequencies");
        };
        for (local, f) in freqs.iter().enumerate() {
            let expected = if t.global_id(local as u32) <= 4 {
                0.5
            } else {
                1.0
            };
            assert!((f - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn local_graph_mirrors_global_topology() {
        let (net, pat) = toy();
        let t = ThemeNetwork::induce(&net, &pat);
        for (lu, lv) in t.graph().edges() {
            let (gu, gv) = t.global_edge((lu, lv));
            assert!(net.graph().has_edge(gu, gv));
        }
    }

    #[test]
    fn induce_multi_item_pattern_requires_cooccurrence() {
        let mut b = DatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        let y = b.intern_item("y");
        // v0 has x and y co-occurring; v1 has both items but never together.
        b.add_transaction(0, &[x, y]);
        b.add_transaction(1, &[x]);
        b.add_transaction(1, &[y]);
        b.add_edge(0, 1);
        let net = b.build().unwrap();
        let pat = Pattern::new(vec![x, y]);
        let t = ThemeNetwork::induce(&net, &pat);
        assert_eq!(t.global_vertices(), &[0], "v1 has f=0 for {{x,y}}");
        assert!(t.is_trivial());
    }

    #[test]
    fn induce_from_edges_restricts() {
        let (net, pat) = toy();
        // Restrict to the second triangle plus a dangling edge to v5
        // (v5 has zero frequency and must drop out).
        let edges = [(6u32, 7u32), (7, 8), (6, 8), (5, 6)];
        let t = ThemeNetwork::induce_from_edges(&net, &pat, &edges);
        assert_eq!(t.global_vertices(), &[6, 7, 8]);
        assert_eq!(t.num_edges(), 3);
    }

    #[test]
    fn induce_from_empty_edges() {
        let (net, pat) = toy();
        let t = ThemeNetwork::induce_from_edges(&net, &pat, &[]);
        assert_eq!(t.num_vertices(), 0);
        assert!(t.is_trivial());
    }

    #[test]
    fn unknown_pattern_gives_empty_network() {
        let (net, _) = toy();
        let ghost = Pattern::singleton(tc_txdb::Item(999));
        let t = ThemeNetwork::induce(&net, &ghost);
        assert_eq!(t.num_vertices(), 0);
        assert_eq!(t.num_edges(), 0);
    }
}
