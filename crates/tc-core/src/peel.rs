//! The shared edge-peeling engine behind MPTD and truss decomposition.
//!
//! Both Algorithm 1 (maximal pattern truss detection) and the §6.1
//! decomposition repeatedly remove *unqualified* edges — edges whose
//! cohesion has dropped to `≤ α` — cascading cohesion updates to the other
//! two edges of every destroyed triangle. [`PeelState`] owns that machinery:
//! initial cohesions, the FIFO queue, and pop-time removal semantics (a
//! triangle is destroyed exactly once, by the first of its edges popped).
//!
//! What a triangle weighs is the engine's single point of variation:
//! `min(f_i, f_j, f_k)` when the databases sit on vertices, `min(f_ij, f_ik,
//! f_jk)` when they sit on edges (§8). The two loops that weigh triangles
//! are generic over a `TriangleWeight` and monomorphised once per kind, so
//! neither pays a per-triangle branch for the other.

use crate::theme::{Frequencies, ThemeNetwork};
use tc_util::float;

/// The weight of a triangle, split so the part fixed by the edge being
/// scanned is computed once per scan rather than once per triangle.
trait TriangleWeight: Copy {
    /// The share of the weight fixed by edge `id = (u, v)` alone.
    fn of_edge(self, id: u32, ends: (u32, u32)) -> f64;

    /// The weight of the triangle that closes that edge (`edge` is its
    /// [`TriangleWeight::of_edge`]) through vertex `w` over edges `e_uw`
    /// and `e_vw`.
    fn of_triangle(self, edge: f64, w: u32, e_uw: u32, e_vw: u32) -> f64;
}

/// `min(f_i, f_j, f_k)` over per-vertex frequencies.
#[derive(Clone, Copy)]
struct VertexHeld<'a>(&'a [f64]);

impl TriangleWeight for VertexHeld<'_> {
    #[inline]
    fn of_edge(self, _: u32, (u, v): (u32, u32)) -> f64 {
        self.0[u as usize].min(self.0[v as usize])
    }

    #[inline]
    fn of_triangle(self, edge: f64, w: u32, _: u32, _: u32) -> f64 {
        edge.min(self.0[w as usize])
    }
}

/// `min(f_ij, f_ik, f_jk)` over per-edge frequencies.
#[derive(Clone, Copy)]
struct EdgeHeld<'a>(&'a [f64]);

impl TriangleWeight for EdgeHeld<'_> {
    #[inline]
    fn of_edge(self, id: u32, _: (u32, u32)) -> f64 {
        self.0[id as usize]
    }

    #[inline]
    fn of_triangle(self, edge: f64, _: u32, e_uw: u32, e_vw: u32) -> f64 {
        edge.min(self.0[e_uw as usize]).min(self.0[e_vw as usize])
    }
}

/// Mutable peeling state over one theme network.
pub struct PeelState<'a> {
    theme: &'a ThemeNetwork,
    /// Edge endpoints by edge id (local vertex ids, `u < v`), in
    /// `graph.edges()` order — the order [`Frequencies::Edge`] is held in.
    edge_ends: Vec<(u32, u32)>,
    /// Per-vertex `(neighbor, edge_id)`, sorted by neighbor — lets a merge
    /// over two adjacency lists yield both "other edge" ids of a triangle.
    adj: Vec<Vec<(u32, u32)>>,
    /// Current cohesion per edge (meaningful while not removed).
    cohesion: Vec<f64>,
    removed: Vec<bool>,
    queued: Vec<bool>,
    alive: usize,
}

impl<'a> PeelState<'a> {
    /// Builds the edge structure and computes initial cohesions
    /// (Algorithm 1, lines 1-8): for each edge `(i, j)`, `eco_ij` is the
    /// summed weight of its triangles `△ijk` — `min(f_i, f_j, f_k)`, or
    /// `min(f_ij, f_ik, f_jk)` when the theme's frequencies sit on edges.
    pub fn new(theme: &'a ThemeNetwork) -> Self {
        let g = theme.graph();
        let n = g.num_vertices();
        let m = g.num_edges();

        let mut edge_ends = Vec::with_capacity(m);
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (u, v) in g.edges() {
            let id = edge_ends.len() as u32;
            edge_ends.push((u, v));
            adj[u as usize].push((v, id));
            adj[v as usize].push((u, id));
        }
        // `g.edges()` yields neighbors in sorted order per `u`, but the
        // reverse insertions interleave; sort each list by neighbor id.
        for list in &mut adj {
            list.sort_unstable_by_key(|&(w, _)| w);
        }

        let cohesion = match theme.frequencies() {
            Frequencies::Vertex(f) => initial_cohesions(&edge_ends, &adj, VertexHeld(f)),
            Frequencies::Edge(f) => initial_cohesions(&edge_ends, &adj, EdgeHeld(f)),
        };

        PeelState {
            theme,
            edge_ends,
            adj,
            cohesion,
            removed: vec![false; m],
            queued: vec![false; m],
            alive: m,
        }
    }

    /// Total number of edges (alive or removed). Edge ids are `0..num_edges`
    /// and stay stable across [`PeelState::peel`] calls.
    pub fn num_edges(&self) -> usize {
        self.edge_ends.len()
    }

    /// Number of edges not yet removed.
    pub fn alive_edges(&self) -> usize {
        self.alive
    }

    /// Current cohesion of edge `id` (only meaningful while alive).
    pub fn cohesion(&self, id: u32) -> f64 {
        self.cohesion[id as usize]
    }

    /// Local endpoints of edge `id`.
    pub fn endpoints(&self, id: u32) -> (u32, u32) {
        self.edge_ends[id as usize]
    }

    /// Iterates over the ids of alive edges.
    pub fn alive_edge_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.edge_ends.len() as u32).filter(move |&id| !self.removed[id as usize])
    }

    /// Minimum cohesion among alive edges (`β` of Theorem 6.1), if any.
    pub fn min_alive_cohesion(&self) -> Option<f64> {
        self.alive_edge_ids()
            .map(|id| self.cohesion[id as usize])
            .min_by(f64::total_cmp)
    }

    /// Removes every alive edge whose cohesion is `≤ alpha` (with the
    /// [`float::COHESION_EPS`] tolerance), cascading updates — Algorithm 1,
    /// lines 9-18. Calls `on_remove(edge_id)` for each removal, in removal
    /// order.
    pub fn peel(&mut self, alpha: f64, on_remove: impl FnMut(u32)) {
        let theme = self.theme;
        match theme.frequencies() {
            Frequencies::Vertex(f) => self.cascade(VertexHeld(f), alpha, on_remove),
            Frequencies::Edge(f) => self.cascade(EdgeHeld(f), alpha, on_remove),
        }
    }

    fn cascade<W: TriangleWeight>(
        &mut self,
        weight: W,
        alpha: f64,
        mut on_remove: impl FnMut(u32),
    ) {
        let mut queue = std::collections::VecDeque::new();
        for id in 0..self.edge_ends.len() as u32 {
            if !self.removed[id as usize]
                && !self.queued[id as usize]
                && float::leq_eps(self.cohesion[id as usize], alpha)
            {
                self.queued[id as usize] = true;
                queue.push_back(id);
            }
        }

        while let Some(id) = queue.pop_front() {
            self.removed[id as usize] = true;
            self.alive -= 1;
            on_remove(id);

            let (u, v) = self.edge_ends[id as usize];
            let w_uv = weight.of_edge(id, (u, v));
            // Split borrows: adjacency is immutable during the scan while
            // cohesion/removed/queued mutate.
            let (adj_u, adj_v) = (&self.adj[u as usize], &self.adj[v as usize]);
            let removed = &mut self.removed;
            let queued = &mut self.queued;
            let cohesion = &mut self.cohesion;
            let mut newly_unqualified = Vec::new();
            merge_triangles(adj_u, adj_v, |e_uw, e_vw, w| {
                // Triangle (u,v,w) still exists only if neither other edge
                // was removed before this pop.
                if removed[e_uw as usize] || removed[e_vw as usize] {
                    return;
                }
                let t = weight.of_triangle(w_uv, w, e_uw, e_vw);
                for other in [e_uw, e_vw] {
                    cohesion[other as usize] -= t;
                    if float::leq_eps(cohesion[other as usize], alpha) && !queued[other as usize] {
                        queued[other as usize] = true;
                        newly_unqualified.push(other);
                    }
                }
            });
            queue.extend(newly_unqualified);
        }
    }

    /// The alive edges as **global** canonical keys, sorted.
    pub fn alive_global_edges(&self) -> Vec<tc_graph::EdgeKey> {
        let mut out: Vec<tc_graph::EdgeKey> = self
            .alive_edge_ids()
            .map(|id| self.theme.global_edge(self.edge_ends[id as usize]))
            .collect();
        out.sort_unstable();
        out
    }
}

/// The cohesion of every edge with all edges alive: the summed weight of
/// the triangles it closes.
fn initial_cohesions<W: TriangleWeight>(
    edge_ends: &[(u32, u32)],
    adj: &[Vec<(u32, u32)>],
    weight: W,
) -> Vec<f64> {
    let mut cohesion = Vec::with_capacity(edge_ends.len());
    for (id, &(u, v)) in edge_ends.iter().enumerate() {
        let w_uv = weight.of_edge(id as u32, (u, v));
        let mut eco = 0.0;
        merge_triangles(&adj[u as usize], &adj[v as usize], |e_uw, e_vw, w| {
            eco += weight.of_triangle(w_uv, w, e_uw, e_vw);
        });
        cohesion.push(eco);
    }
    cohesion
}

/// Merges two `(neighbor, edge_id)` adjacency lists sorted by neighbor,
/// invoking `f(edge_a, edge_b, w)` for every common neighbor `w`.
#[inline]
fn merge_triangles(a: &[(u32, u32)], b: &[(u32, u32)], mut f: impl FnMut(u32, u32, u32)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i].1, b[j].1, a[i].0);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DatabaseNetworkBuilder;
    use crate::theme::ThemeNetwork;
    use tc_txdb::Pattern;

    /// A triangle where every vertex has frequency `f`.
    fn uniform_triangle(f_num: usize, f_den: usize) -> ThemeNetwork {
        let mut b = DatabaseNetworkBuilder::new();
        let p = b.intern_item("p");
        let q = b.intern_item("q");
        for v in 0..3u32 {
            for _ in 0..f_num {
                b.add_transaction(v, &[p]);
            }
            for _ in 0..(f_den - f_num) {
                b.add_transaction(v, &[q]);
            }
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        let net = b.build().unwrap();
        let pat = Pattern::singleton(net.item_space().get("p").unwrap());
        ThemeNetwork::induce(&net, &pat)
    }

    #[test]
    fn initial_cohesion_of_triangle() {
        // f = 0.5 everywhere; each edge sits in one triangle: eco = 0.5.
        let theme = uniform_triangle(1, 2);
        let state = PeelState::new(&theme);
        assert_eq!(state.alive_edges(), 3);
        for id in 0..3 {
            assert!((state.cohesion(id) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn peel_below_threshold_removes_nothing() {
        let theme = uniform_triangle(1, 2);
        let mut state = PeelState::new(&theme);
        let mut removed = Vec::new();
        state.peel(0.4, |e| removed.push(e));
        assert!(removed.is_empty());
        assert_eq!(state.alive_edges(), 3);
    }

    #[test]
    fn peel_at_threshold_removes_all() {
        // eco = 0.5 ≤ α = 0.5 → unqualified (strict > required to survive).
        let theme = uniform_triangle(1, 2);
        let mut state = PeelState::new(&theme);
        let mut removed = Vec::new();
        state.peel(0.5, |e| removed.push(e));
        assert_eq!(removed.len(), 3);
        assert_eq!(state.alive_edges(), 0);
    }

    #[test]
    fn min_alive_cohesion() {
        let theme = uniform_triangle(1, 2);
        let state = PeelState::new(&theme);
        assert!((state.min_alive_cohesion().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cascade_destroys_dependent_edges() {
        // Two triangles sharing edge (1,2); outer edges have eco = min-freq
        // of their single triangle; removing them cascades.
        let mut b = DatabaseNetworkBuilder::new();
        let p = b.intern_item("p");
        for v in 0..4u32 {
            b.add_transaction(v, &[p]); // f = 1.0 everywhere
        }
        b.add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 2)
            .add_edge(1, 3)
            .add_edge(2, 3);
        let net = b.build().unwrap();
        let pat = Pattern::singleton(net.item_space().get("p").unwrap());
        let theme = ThemeNetwork::induce(&net, &pat);
        let mut state = PeelState::new(&theme);
        // (1,2) sits in two triangles: eco = 2. Others: eco = 1.
        // Peel at α = 1: every edge dies (outer first, then (1,2) cascades).
        state.peel(1.0, |_| {});
        assert_eq!(state.alive_edges(), 0);
    }

    #[test]
    fn peel_is_monotone_resumable() {
        // Peeling at increasing thresholds matches peeling once at the top.
        let theme = uniform_triangle(1, 2);
        let mut a = PeelState::new(&theme);
        a.peel(0.2, |_| {});
        a.peel(0.5, |_| {});
        let mut b = PeelState::new(&theme);
        b.peel(0.5, |_| {});
        assert_eq!(a.alive_edges(), b.alive_edges());
    }

    #[test]
    fn alive_global_edges_sorted_canonical() {
        let theme = uniform_triangle(1, 2);
        let state = PeelState::new(&theme);
        let edges = state.alive_global_edges();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }
}
