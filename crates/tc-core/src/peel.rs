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
//! f_jk)` when they sit on edges (§8). Triangles are weighed once, when a
//! state is built — that loop is generic over a `TriangleWeight` and
//! monomorphised once per kind — and the cascade subtracts the weights it
//! stored.
//!
//! # One triangle index, many masks
//!
//! A [`TriangleIndex`] lists a graph's triangles once: edge `(u, v)` gets
//! the triples `(e_uw, e_vw, w)` of its triangles `△uvw`, ascending in `w`,
//! in one flat array. The listing reads the graph's CSR neighbour lists,
//! stamps `u`'s neighbours once per `u` and scans each upper neighbour
//! `v`'s list, so it costs `O(Σ_{(u,v)} d(v))`. It holds 12 B per (edge,
//! triangle) pair — 36 B per triangle.
//!
//! A [`PeelState`] is a *mask* over an index: a sorted list of its edge
//! ids. Building one keeps, from each masked edge's list, the
//! triangles whose other two edges are masked too, renumbers them into
//! the state's own ids, weighs each triangle once and sums each kept list
//! into the edge's initial cohesion as it is written: 16 B per kept
//! (edge, triangle) pair. Removing an edge then walks its kept list,
//! skipping the triangles an earlier removal destroyed; no adjacency
//! lists are merged after the listing.
//!
//! The lattice walk ([`crate::lattice`]) lists the whole network's index
//! once and masks it for every candidate pattern, whose theme network is
//! a subgraph of the network. [`PeelState::new`] runs the same two steps
//! on one theme network: it lists the theme's own index, then masks all
//! of its edges. There is one listing routine and one cascade.
//!
//! # Refilled in place
//!
//! A walk worker keeps one state and refills it with every candidate it
//! evaluates, so its buffers grow to the worker's largest candidate and
//! are then reused. A refill rebuilds every per-edge array from the new
//! mask — ids, keys, triangle offsets and lists, cohesions — and resets
//! what peeling leaves behind: every `removed` and `queued` flag back to
//! `false`, the queue emptied, every edge alive. A refilled state is a
//! fresh one bit for bit; only the buffers' capacity remembers what came
//! before. [`PeelState::new`] fills a new state through the same routine.
//!
//! # Why the orders are load-bearing
//!
//! A cohesion is an f64 sum of triangle weights, and f64 addition is not
//! associative: adding or subtracting the same weights in another order
//! moves low bits. Those bits decide which edges fall within
//! [`float::COHESION_EPS`] of `α`, hence the queue order, every
//! decomposition level's `β`, and every TC-Tree segment byte. Two orders
//! keep a masked state bit-identical to its theme network's own:
//!
//! * *Each list ascends in `w`.* Masking filters a list without reordering
//!   it, and a theme's local ids ascend with the network's ids, so a kept
//!   list is the theme's own list in the theme's own order — the order
//!   [`crate::oracle`] sums the definition in, and the order the pinned
//!   segments were written in.
//! * *Edge ids ascend in canonical `(u, v)` order.* A mask is sorted, so
//!   the state's ids ascend as the theme's `graph.edges()` ids do: the
//!   queue is seeded in the same order and ties at `β` fall the same way.

use crate::decompose::TrussLevel;
use crate::theme::{Frequencies, ThemeNetwork};
use std::collections::VecDeque;
use tc_graph::{EdgeKey, UGraph};
use tc_util::float;

/// Marks an edge or vertex outside the current mask or stamp; never an
/// edge id, since [`TriangleIndex::new`] refuses `u32::MAX` edges or more.
pub(crate) const UNMARKED: u32 = u32::MAX;

/// Every triangle of one graph, listed once per edge.
#[derive(Debug, Clone)]
pub struct TriangleIndex {
    /// Edge endpoints by edge id (`u < v`); ids ascend in `(u, v)` order.
    ends: Vec<(u32, u32)>,
    /// `ids[start[v] + i]` is the id of the edge to `g.neighbors(v)[i]`.
    start: Vec<usize>,
    ids: Vec<u32>,
    /// `triangles[tri_start[id]..tri_start[id + 1]]` are the triangles of
    /// edge `id = (u, v)` as `[e_uw, e_vw, w]`, ascending in `w`.
    tri_start: Vec<usize>,
    triangles: Vec<[u32; 3]>,
}

impl TriangleIndex {
    /// Numbers `g`'s edges in `g.edges()` order and lists every edge's
    /// triangles ascending in `w`.
    pub fn new(g: &UGraph) -> TriangleIndex {
        let n = g.num_vertices();
        let m = g.num_edges();
        assert!(
            m < UNMARKED as usize,
            "edge ids are u32: a graph of {m} edges cannot be indexed"
        );
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        for v in 0..n as u32 {
            start.push(start[v as usize] + g.degree(v));
        }
        let mut ends = Vec::with_capacity(m);
        let mut ids = vec![0u32; start[n]];
        // `v`'s lower neighbours open its sorted list, and edges to them
        // are numbered in that same order, so a cursor per vertex fills
        // them as `u` ascends.
        let mut cursor = start[..n].to_vec();
        for u in 0..n as u32 {
            let s = start[u as usize];
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                if v > u {
                    let id = ends.len() as u32; // < m, asserted above
                    ends.push((u, v));
                    ids[s + i] = id;
                    ids[cursor[v as usize]] = id;
                    cursor[v as usize] += 1;
                }
            }
        }
        let ids_of = |v: u32| &ids[start[v as usize]..start[v as usize + 1]];
        let mut tri_start = Vec::with_capacity(m + 1);
        let mut triangles = Vec::new();
        // While `u` is stamped, `mark[w]` is the id of edge `(u, w)`.
        let mut mark = vec![UNMARKED; n];
        for u in 0..n as u32 {
            let ns = g.neighbors(u);
            for (&w, &e_uw) in ns.iter().zip(ids_of(u)) {
                mark[w as usize] = e_uw;
            }
            for (&v, &e_uv) in ns.iter().zip(ids_of(u)).filter(|(&v, _)| v > u) {
                debug_assert_eq!(e_uv as usize, tri_start.len());
                tri_start.push(triangles.len());
                for (&w, &e_vw) in g.neighbors(v).iter().zip(ids_of(v)) {
                    let e_uw = mark[w as usize];
                    if e_uw != UNMARKED {
                        triangles.push([e_uw, e_vw, w]);
                    }
                }
            }
            for &w in ns {
                mark[w as usize] = UNMARKED;
            }
        }
        tri_start.push(triangles.len());
        TriangleIndex {
            ends,
            start,
            ids,
            tri_start,
            triangles,
        }
    }

    /// Number of edges; their ids are `0..num_edges`.
    pub fn num_edges(&self) -> usize {
        self.ends.len()
    }

    /// Endpoints of edge `id`, `u < v`.
    #[inline]
    pub fn ends(&self, id: u32) -> (u32, u32) {
        self.ends[id as usize]
    }

    /// The ids of the edges to `g.neighbors(v)`, in that order.
    #[inline]
    pub(crate) fn neighbor_ids(&self, v: u32) -> &[u32] {
        &self.ids[self.start[v as usize]..self.start[v as usize + 1]]
    }

    /// The triangles of edge `id` as `[e_uw, e_vw, w]`, ascending in `w`.
    #[inline]
    fn triangles(&self, id: u32) -> &[[u32; 3]] {
        &self.triangles[self.tri_start[id as usize]..self.tri_start[id as usize + 1]]
    }
}

/// What a triangle weighs, split so the part fixed by the edge being
/// scanned is computed once per scan rather than once per triangle.
pub(crate) trait TriangleWeight: Copy {
    /// The share of the weight fixed by edge `(u, v)` alone, the `local`th
    /// edge of the mask.
    fn of_edge(self, local: u32, ends: (u32, u32)) -> f64;

    /// The weight of the triangle that closes that edge (`edge` is its
    /// [`TriangleWeight::of_edge`]) through vertex `w` over the mask's
    /// `l_uw`th and `l_vw`th edges.
    fn of_triangle(self, edge: f64, w: u32, l_uw: u32, l_vw: u32) -> f64;
}

/// `min(f_i, f_j, f_k)` over per-vertex frequencies, indexed by the
/// index's vertex ids.
#[derive(Clone, Copy)]
pub(crate) struct VertexHeld<'a>(pub(crate) &'a [f64]);

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

/// `min(f_ij, f_ik, f_jk)` over per-edge frequencies, indexed by position
/// in the mask.
#[derive(Clone, Copy)]
pub(crate) struct EdgeHeld<'a>(pub(crate) &'a [f64]);

impl TriangleWeight for EdgeHeld<'_> {
    #[inline]
    fn of_edge(self, local: u32, _: (u32, u32)) -> f64 {
        self.0[local as usize]
    }

    #[inline]
    fn of_triangle(self, edge: f64, _: u32, l_uw: u32, l_vw: u32) -> f64 {
        edge.min(self.0[l_uw as usize]).min(self.0[l_vw as usize])
    }
}

/// A kept triangle of one edge: the state's ids of its other two edges,
/// and its weight.
#[derive(Clone, Copy)]
struct Triangle {
    e_uw: u32,
    e_vw: u32,
    weight: f64,
}

/// Mutable peeling state over a mask of one [`TriangleIndex`].
///
/// The default state has no edge; the lattice walk refills one per worker.
#[derive(Default)]
pub struct PeelState {
    /// The index id of each edge, ascending: the mask.
    ids: Vec<u32>,
    /// Each edge's canonical global key.
    keys: Vec<EdgeKey>,
    /// `triangles[tri_start[id]..tri_start[id + 1]]` are the surviving
    /// triangles of edge `id`, ascending in their third vertex.
    tri_start: Vec<usize>,
    triangles: Vec<Triangle>,
    /// Current cohesion per edge (meaningful while not removed).
    cohesion: Vec<f64>,
    removed: Vec<bool>,
    queued: Vec<bool>,
    /// Unqualified edges awaiting removal; empty between calls, kept for
    /// its buffer.
    queue: VecDeque<u32>,
    alive: usize,
    /// [`PeelState::peel_levels`]' scratch, kept for its buffers: the keys
    /// each level removed, level after level, and each level's `β` with
    /// its end in them.
    spill: Vec<EdgeKey>,
    spill_ends: Vec<(f64, usize)>,
}

impl PeelState {
    /// Lists the theme network's triangles and computes initial cohesions
    /// (Algorithm 1, lines 1-8): for each edge `(i, j)`, `eco_ij` is the
    /// summed weight of its triangles `△ijk` — `min(f_i, f_j, f_k)`, or
    /// `min(f_ij, f_ik, f_jk)` when the theme's frequencies sit on edges.
    ///
    /// This is the theme's own [`TriangleIndex`] with every edge masked.
    pub fn new(theme: &ThemeNetwork) -> Self {
        let index = TriangleIndex::new(theme.graph());
        let mut state = PeelState {
            ids: (0..index.num_edges() as u32).collect(),
            ..PeelState::default()
        };
        let mut local = vec![UNMARKED; index.num_edges()];
        let key = |e| theme.global_edge(e);
        match theme.frequencies() {
            Frequencies::Vertex(f) => state.fill(&index, VertexHeld(f), &mut local, key),
            Frequencies::Edge(f) => state.fill(&index, EdgeHeld(f), &mut local, key),
        }
        state
    }

    /// Refills this state, in place, with the subgraph of `index` made of
    /// the edges in `mask` (sorted ids), with triangles weighed by
    /// `weight`; `key` maps an index edge's endpoints to its global key.
    /// What it held before leaves no trace but the buffers' capacity.
    ///
    /// `local` is scratch of one entry per index edge, all [`UNMARKED`],
    /// and is left so.
    pub(crate) fn refill<W: TriangleWeight>(
        &mut self,
        index: &TriangleIndex,
        mask: &[u32],
        weight: W,
        local: &mut [u32],
        key: impl Fn((u32, u32)) -> EdgeKey,
    ) {
        self.ids.clear();
        self.ids.extend_from_slice(mask);
        self.fill(index, weight, local, key);
    }

    /// Builds every per-edge array over the mask in `ids`, which is all a
    /// fill keeps of what the state held.
    fn fill<W: TriangleWeight>(
        &mut self,
        index: &TriangleIndex,
        weight: W,
        local: &mut [u32],
        key: impl Fn((u32, u32)) -> EdgeKey,
    ) {
        let mask = &self.ids;
        debug_assert!(mask.windows(2).all(|w| w[0] < w[1]), "sorted mask");
        let m = mask.len();
        for (l, &id) in mask.iter().enumerate() {
            local[id as usize] = l as u32;
        }
        let (tri_start, triangles) = (&mut self.tri_start, &mut self.triangles);
        let (cohesion, keys) = (&mut self.cohesion, &mut self.keys);
        tri_start.clear();
        tri_start.reserve_exact(m + 1);
        triangles.clear();
        triangles.reserve_exact(mask.iter().map(|&id| index.triangles(id).len()).sum());
        cohesion.clear();
        cohesion.reserve_exact(m);
        keys.clear();
        keys.reserve_exact(m);
        for (l, &id) in mask.iter().enumerate() {
            tri_start.push(triangles.len());
            let ends = index.ends(id);
            keys.push(key(ends));
            let w_uv = weight.of_edge(l as u32, ends);
            let mut eco = 0.0;
            for &[e_uw, e_vw, w] in index.triangles(id) {
                let (e_uw, e_vw) = (local[e_uw as usize], local[e_vw as usize]);
                if e_uw != UNMARKED && e_vw != UNMARKED {
                    let t = weight.of_triangle(w_uv, w, e_uw, e_vw);
                    triangles.push(Triangle {
                        e_uw,
                        e_vw,
                        weight: t,
                    });
                    eco += t;
                }
            }
            cohesion.push(eco);
        }
        tri_start.push(triangles.len());
        for &id in mask {
            local[id as usize] = UNMARKED;
        }
        self.removed.clear();
        self.removed.resize(m, false);
        self.queued.clear();
        self.queued.resize(m, false);
        self.queue.clear();
        self.alive = m;
    }

    /// Total number of edges (alive or removed). Edge ids are `0..num_edges`
    /// and stay stable across [`PeelState::peel`] calls.
    pub fn num_edges(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges not yet removed.
    pub fn alive_edges(&self) -> usize {
        self.alive
    }

    /// Current cohesion of edge `id` (only meaningful while alive).
    pub fn cohesion(&self, id: u32) -> f64 {
        self.cohesion[id as usize]
    }

    /// The canonical global key of edge `id`.
    pub fn edge(&self, id: u32) -> EdgeKey {
        self.keys[id as usize]
    }

    /// Iterates over the ids of alive edges.
    pub fn alive_edge_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.ids.len() as u32).filter(move |&id| !self.removed[id as usize])
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
    pub fn peel(&mut self, alpha: f64, mut on_remove: impl FnMut(u32)) {
        for id in 0..self.ids.len() as u32 {
            if !self.removed[id as usize]
                && !self.queued[id as usize]
                && float::leq_eps(self.cohesion[id as usize], alpha)
            {
                self.queued[id as usize] = true;
                self.queue.push_back(id);
            }
        }
        self.cascade(alpha, |id, _| on_remove(id));
    }

    /// Peels at `β`, the minimum cohesion among alive edges (Theorem 6.1),
    /// and returns it: one step of the §6.1 decomposition, equal to
    /// `peel(β)` after [`PeelState::min_alive_cohesion`]. `None`, removing
    /// nothing, when no edge is alive.
    pub fn peel_lowest(&mut self, mut on_remove: impl FnMut(u32)) -> Option<f64> {
        self.lowest(|id, _| on_remove(id))
    }

    /// The §6.1 decomposition of this state, already peeled to `C*_p(0)`:
    /// peels at each `β` ([`PeelState::peel_lowest`]) until no edge is
    /// left, and returns each step's `β` with the keys it removed, sorted
    /// — `L_p`. The cascade hands each removed key straight to a buffer
    /// the state keeps, level after level; the levels are then copied out
    /// at their exact sizes, so a decomposition allocates its `h` edge
    /// lists and the list of them, and nothing else once the state's
    /// buffers have grown.
    pub(crate) fn peel_levels(&mut self) -> Vec<TrussLevel> {
        let mut keys = std::mem::take(&mut self.spill);
        let mut ends = std::mem::take(&mut self.spill_ends);
        keys.clear();
        ends.clear();
        while let Some(beta) = self.lowest(|_, key| keys.push(key)) {
            debug_assert!(
                keys.len() > ends.last().map_or(0, |&(_, end)| end),
                "a level must remove the β edge"
            );
            ends.push((beta, keys.len()));
        }
        let mut start = 0;
        let levels = ends
            .iter()
            .map(|&(alpha, end)| {
                let edges = &mut keys[start..end];
                start = end;
                edges.sort_unstable();
                TrussLevel {
                    alpha,
                    edges: edges.to_vec(),
                }
            })
            .collect();
        self.spill = keys;
        self.spill_ends = ends;
        levels
    }

    /// [`PeelState::peel_lowest`], reporting each removed edge's id and
    /// key.
    fn lowest(&mut self, on_remove: impl FnMut(u32, EdgeKey)) -> Option<f64> {
        // One scan finds β and seeds the queue. An edge within eps of the
        // running minimum is a candidate; filtering the candidates against
        // the final β leaves exactly the alive edges `≤ β`, ascending in
        // id — what `peel(β)`'s own scan would queue.
        let mut beta: Option<f64> = None;
        for id in 0..self.ids.len() as u32 {
            if self.removed[id as usize] {
                continue;
            }
            let c = self.cohesion[id as usize];
            let low = match beta {
                Some(b) if b.total_cmp(&c).is_le() => b,
                _ => *beta.insert(c),
            };
            if float::leq_eps(c, low) {
                self.queue.push_back(id);
            }
        }
        debug_assert_eq!(
            beta.map(f64::to_bits),
            self.min_alive_cohesion().map(f64::to_bits)
        );
        let beta = beta?;
        let (cohesion, queued) = (&self.cohesion, &mut self.queued);
        self.queue.retain(|&id| {
            let seed = float::leq_eps(cohesion[id as usize], beta);
            queued[id as usize] = seed;
            seed
        });
        self.cascade(beta, on_remove);
        Some(beta)
    }

    /// Pops the queue until it is empty: removes each edge, destroys its
    /// surviving triangles and queues the edges they leave `≤ alpha`.
    fn cascade(&mut self, alpha: f64, mut on_remove: impl FnMut(u32, EdgeKey)) {
        while let Some(id) = self.queue.pop_front() {
            self.removed[id as usize] = true;
            self.alive -= 1;
            on_remove(id, self.keys[id as usize]);

            let list =
                &self.triangles[self.tri_start[id as usize]..self.tri_start[id as usize + 1]];
            for &Triangle { e_uw, e_vw, weight } in list {
                // Triangle (u,v,w) still exists only if neither other edge
                // was removed before this pop.
                if self.removed[e_uw as usize] || self.removed[e_vw as usize] {
                    continue;
                }
                for other in [e_uw, e_vw] {
                    let other = other as usize;
                    self.cohesion[other] -= weight;
                    if float::leq_eps(self.cohesion[other], alpha) && !self.queued[other] {
                        self.queued[other] = true;
                        self.queue.push_back(other as u32);
                    }
                }
            }
        }
    }

    /// The alive edges as **global** canonical keys, sorted.
    pub fn alive_global_edges(&self) -> Vec<EdgeKey> {
        // Ids ascend in `(u, v)` order and the index's ids → global ids is
        // monotone, so the keys come out sorted.
        let mut out = Vec::with_capacity(self.alive);
        out.extend(self.alive_edge_ids().map(|id| self.keys[id as usize]));
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
        out
    }

    /// Appends the alive edges to `out` as ids of the index this state
    /// masks, ascending.
    pub fn extend_alive_index_ids(&self, out: &mut Vec<u32>) {
        out.extend(self.alive_edge_ids().map(|id| self.ids[id as usize]));
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
    fn index_numbers_edges_in_canonical_order() {
        let theme = uniform_triangle(1, 2);
        let index = TriangleIndex::new(theme.graph());
        let ends: Vec<_> = (0..index.num_edges() as u32)
            .map(|id| index.ends(id))
            .collect();
        assert_eq!(ends, theme.graph().edges().collect::<Vec<_>>());
        // Edge (0, 1) closes one triangle, through w = 2 over (0, 2), (1, 2).
        assert_eq!(index.triangles(0), &[[1, 2, 2]]);
        assert_eq!(index.neighbor_ids(2), &[1, 2]);
    }

    #[test]
    fn a_mask_keeps_only_triangles_inside_it() {
        // Masking out (0, 2) leaves (0, 1) and (1, 2) with no triangle.
        let theme = uniform_triangle(1, 2);
        let index = TriangleIndex::new(theme.graph());
        let Frequencies::Vertex(f) = theme.frequencies() else {
            panic!("a vertex theme");
        };
        let mut local = vec![UNMARKED; 3];
        let mut state = PeelState::default();
        state.refill(&index, &[0, 2], VertexHeld(f), &mut local, |e| e);
        assert_eq!(state.num_edges(), 2);
        assert_eq!((state.cohesion(0), state.cohesion(1)), (0.0, 0.0));
        let mut ids = Vec::new();
        state.extend_alive_index_ids(&mut ids);
        assert_eq!(ids, vec![0, 2]);
        assert!(local.iter().all(|&l| l == UNMARKED), "scratch left clean");
    }

    #[test]
    fn alive_global_edges_sorted_canonical() {
        let theme = uniform_triangle(1, 2);
        let state = PeelState::new(&theme);
        let edges = state.alive_global_edges();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }
}
