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
//!
//! # Two ways to a theme network
//!
//! [`ThemeSource::theme`] and [`ThemeSource::theme_within`] materialise a
//! candidate's theme network from scratch: one frequency probe per span
//! vertex (or edge), then a CSR of its own. They are the serial reference
//! ([`crate::TcfiMiner`]) and the induction cost model of the TCS and
//! TCFA baselines.
//!
//! The [`crate::lattice`] walk never materialises one. It asks the
//! network for its [`Frame`] — the whole network's [`TriangleIndex`],
//! listed once — and evaluates each candidate as a mask of it, the way
//! Eclat mines itemsets from carried tidsets:
//!
//! * a qualified pattern carries its *join edges* (the edges its children
//!   are induced within) as sorted index edge ids, and the tidset of each
//!   database on them — each span vertex's, or each edge's;
//! * a child `p ∪ {a, b}` is induced within `join(a) ∩ join(b)`
//!   (Proposition 5.3), and a database's tidset for it is
//!   `tidset(p ∪ {a}) ∩ tidset(p ∪ {b})`: its frequency is that set's
//!   popcount over the database's `h`, the integer support
//!   [`tc_txdb::TransactionDb::support`] would count, divided the same
//!   way;
//! * the child's theme network is the intersection's edges whose
//!   databases (both endpoints', or the edge's own) kept a positive
//!   frequency, and the [`PeelState`] filters the index's triangle
//!   lists down to it.
//!
//! Both ways yield the same edges, the same frequency bits and the same
//! triangle lists in the same order, so every cohesion is bit-identical
//! (see [`crate::peel`]).
//!
//! # Frame, scratch and carries
//!
//! * A [`Frame`] is the network's part, read-only and shared by every
//!   worker: the triangle index and each database's `h`.
//! * A [`Scratch`] is one worker's: per-vertex frequencies and stamps,
//!   per-edge mask positions — all back at rest between candidates — and
//!   the mask, databases and tidset words of the candidate last built.
//!   [`Frame::seed`] and [`Frame::join`] build a candidate there and
//!   refill the worker's one [`PeelState`] with it; neither allocates once
//!   the buffers have grown to the worker's largest candidate.
//! * A [`Carry`] is what one qualified pattern hands its children, as
//!   borrowed slices; [`Carries`] holds several, concatenated in three flat
//!   arrays. [`Frame::carry`] appends the last-built candidate's to a
//!   worker's `Carries`, and a sibling group keeps an exact-size clone of
//!   its members' (see [`crate::lattice`]).

use crate::edge::EdgeDatabaseNetwork;
use crate::network::DatabaseNetwork;
use crate::peel::{EdgeHeld, PeelState, TriangleIndex, VertexHeld, UNMARKED};
use tc_graph::{EdgeKey, GraphBuilder, UGraph, VertexId};
use tc_txdb::{Item, Pattern, TransactionDb};

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
/// network, or inside the intersection of its parents' trusses (§5.3) —
/// either materialised, or as masks of the network's [`Frame`].
pub trait ThemeSource: Sync {
    /// The items occurring in at least one database, ascending.
    fn items_in_use(&self) -> Vec<Item>;

    /// `G_p` over the whole network.
    fn theme(&self, pattern: &Pattern) -> ThemeNetwork;

    /// `G_p` restricted to `edges` (canonical global keys, sorted).
    fn theme_within(&self, pattern: &Pattern, edges: &[EdgeKey]) -> ThemeNetwork;

    /// The whole network as the frame the lattice walk masks: its
    /// triangles listed once.
    fn frame(&self) -> Frame<'_>;
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

    fn frame(&self) -> Frame<'_> {
        Frame::new(self.graph(), Held::Vertex(self))
    }
}

/// Where a network holds its databases.
#[derive(Clone, Copy)]
pub(crate) enum Held<'a> {
    /// On vertices: a database's id is its vertex id.
    Vertex(&'a DatabaseNetwork),
    /// On edges: a database's id is its edge's index id, the edge's
    /// position in [`EdgeDatabaseNetwork::edges`].
    Edge(&'a EdgeDatabaseNetwork),
}

impl<'a> Held<'a> {
    /// Database `id`.
    fn db(self, id: u32) -> &'a TransactionDb {
        match self {
            Held::Vertex(net) => net.database(id),
            Held::Edge(net) => net.database_at(id),
        }
    }
}

/// A whole network prepared for the lattice walk: its [`TriangleIndex`],
/// listed once, and each database's transaction count. Shared read-only
/// by every worker of a walk.
///
/// A worker refills its one [`PeelState`] with a candidate, in its own
/// [`Scratch`], by [`Frame::seed`] (one item) or [`Frame::join`] (two
/// qualified siblings), peels it, and — when it qualifies — appends what
/// its children join on to its [`Carries`] with [`Frame::carry`] from
/// that same scratch, before building the next candidate.
pub struct Frame<'a> {
    index: TriangleIndex,
    held: Held<'a>,
    /// `h` of each database, by database id.
    h: Vec<usize>,
}

/// What a qualified pattern `p ∪ {a}` hands its children: the edges they
/// join on, and the tidsets of the databases on those edges. One entry of
/// a [`Carries`].
#[derive(Clone, Copy)]
pub struct Carry<'a> {
    /// Sorted index edge ids.
    join: &'a [u32],
    /// The databases' ids, ascending: the span of `join` when they sit on
    /// vertices; empty when they sit on edges, whose ids are `join`.
    dbs: &'a [u32],
    /// Each database's tidset for `p ∪ {a}`, `⌈h / 64⌉` words, in `dbs`
    /// (or `join`) order.
    words: &'a [u64],
}

/// The [`Carry`]s of qualified siblings, in the order [`Frame::carry`]
/// appended them, in three flat arrays. A worker appends to one and
/// clears it between tasks; a sibling group keeps an exact-size clone.
#[derive(Clone, Default)]
pub struct Carries {
    join: Vec<u32>,
    dbs: Vec<u32>,
    words: Vec<u64>,
    /// Per carry: where its `join`, `dbs` and `words` end.
    ends: Vec<[usize; 3]>,
}

impl Carries {
    /// The `i`th carry.
    pub fn get(&self, i: usize) -> Carry<'_> {
        let [j, d, w] = i.checked_sub(1).map_or([0; 3], |p| self.ends[p]);
        let [j_end, d_end, w_end] = self.ends[i];
        Carry {
            join: &self.join[j..j_end],
            dbs: &self.dbs[d..d_end],
            words: &self.words[w..w_end],
        }
    }

    /// Appends a copy of `carry`.
    pub fn push(&mut self, carry: Carry<'_>) {
        self.join.extend_from_slice(carry.join);
        self.dbs.extend_from_slice(carry.dbs);
        self.words.extend_from_slice(carry.words);
        self.seal();
    }

    /// Drops every carry, keeping the buffers.
    pub fn clear(&mut self) {
        self.join.clear();
        self.dbs.clear();
        self.words.clear();
        self.ends.clear();
    }

    /// Ends the carry whose parts were appended since the last one ended.
    fn seal(&mut self) {
        self.ends
            .push([self.join.len(), self.dbs.len(), self.words.len()]);
    }
}

/// One worker's scratch for building candidates from a [`Frame`]. Between
/// calls every per-edge and per-vertex entry is back at its rest value.
pub struct Scratch {
    /// Per index edge: its position in the mask being built, else
    /// [`UNMARKED`].
    local: Vec<u32>,
    /// Per vertex (databases on vertices): its frequency for the
    /// candidate being built, else 0.
    freq: Vec<f64>,
    /// Per vertex: stamped while a span is collected.
    mark: Vec<bool>,
    span: Vec<u32>,
    /// The mask being built (databases on vertices).
    mask: Vec<u32>,
    /// The last candidate's databases of positive frequency, ascending,
    /// and their tidsets' words, concatenated.
    dbs: Vec<u32>,
    words: Vec<u64>,
    /// Per mask position (databases on edges): the edge's frequency.
    edge_freq: Vec<f64>,
}

impl<'a> Frame<'a> {
    /// The frame of a network over `graph`, whose edges, numbered in
    /// `(u, v)` order, are the network's.
    pub(crate) fn new(graph: &UGraph, held: Held<'a>) -> Frame<'a> {
        let dbs = match held {
            Held::Vertex(net) => net.num_vertices(),
            Held::Edge(net) => net.num_edges(),
        };
        Frame {
            index: TriangleIndex::new(graph),
            held,
            h: (0..dbs as u32)
                .map(|id| held.db(id).num_transactions())
                .collect(),
        }
    }

    /// Fresh scratch for one worker.
    pub fn scratch(&self) -> Scratch {
        let vertices = match self.held {
            Held::Vertex(_) => self.h.len(),
            Held::Edge(_) => 0,
        };
        Scratch {
            local: vec![UNMARKED; self.index.num_edges()],
            freq: vec![0.0; vertices],
            mark: vec![false; vertices],
            span: Vec::new(),
            mask: Vec::new(),
            dbs: Vec::new(),
            words: Vec::new(),
            edge_freq: Vec::new(),
        }
    }

    /// Words in database `id`'s tidsets.
    #[inline]
    fn width(&self, id: u32) -> usize {
        self.h[id as usize].div_ceil(64)
    }

    /// Refills `state` with the theme network of the pattern `{item}` over
    /// the whole network, unpeeled; `s` keeps its databases for
    /// [`Frame::carry`].
    pub fn seed(&self, item: Item, s: &mut Scratch, state: &mut PeelState) {
        s.dbs.clear();
        s.words.clear();
        let tidset = |id| self.held.db(id).tidset(item).expect("an item in its index");
        match self.held {
            Held::Vertex(net) => {
                let holders = net.vertices_with_item(item);
                for &(v, f) in holders {
                    s.freq[v as usize] = f;
                    s.dbs.push(v);
                    s.words.extend_from_slice(tidset(v).words());
                }
                // Ascending `u`, then ascending upper neighbours `v`: the
                // ids come out ascending.
                let g = net.graph();
                s.mask.clear();
                for &(u, _) in holders {
                    for (&v, &id) in g.neighbors(u).iter().zip(self.index.neighbor_ids(u)) {
                        if v > u && s.freq[v as usize] > 0.0 {
                            s.mask.push(id);
                        }
                    }
                }
                let weight = VertexHeld(&s.freq);
                state.refill(&self.index, &s.mask, weight, &mut s.local, |e| e);
                for &v in &s.dbs {
                    s.freq[v as usize] = 0.0;
                }
            }
            Held::Edge(net) => {
                s.edge_freq.clear();
                for key in net.edges_with_item(item) {
                    let id = net.edges().binary_search(key).expect("an indexed edge") as u32;
                    s.dbs.push(id);
                    s.edge_freq.push(net.database_at(id).item_frequency(item));
                    s.words.extend_from_slice(tidset(id).words());
                }
                let weight = EdgeHeld(&s.edge_freq);
                state.refill(&self.index, &s.dbs, weight, &mut s.local, |e| e);
            }
        }
    }

    /// Refills `state` with the theme network of `p ∪ {a, b}` from its
    /// parents' carries, inside `join(a) ∩ join(b)`, unpeeled; `false`,
    /// leaving `state` as it was, when those join edges are disjoint. `s`
    /// keeps its databases for [`Frame::carry`].
    pub fn join(&self, a: Carry<'_>, b: Carry<'_>, s: &mut Scratch, state: &mut PeelState) -> bool {
        s.dbs.clear();
        s.words.clear();
        match self.held {
            Held::Vertex(_) => {
                s.mask.clear();
                tc_util::sorted::intersect_into(a.join, b.join, &mut s.mask);
                if s.mask.is_empty() {
                    return false;
                }
                s.span.clear();
                for &id in &s.mask {
                    let (u, v) = self.index.ends(id);
                    for x in [u, v] {
                        if !s.mark[x as usize] {
                            s.mark[x as usize] = true;
                            s.span.push(x);
                        }
                    }
                }
                s.span.sort_unstable();
                // Both parents' spans hold the child's: walk them along it.
                let (mut ia, mut oa, mut ib, mut ob) = (0, 0, 0, 0);
                for &x in &s.span {
                    s.mark[x as usize] = false;
                    while a.dbs[ia] < x {
                        oa += self.width(a.dbs[ia]);
                        ia += 1;
                    }
                    while b.dbs[ib] < x {
                        ob += self.width(b.dbs[ib]);
                        ib += 1;
                    }
                    debug_assert!(a.dbs[ia] == x && b.dbs[ib] == x, "span within parents'");
                    if let Some(f) = self.and(x, &a.words[oa..], &b.words[ob..], &mut s.words) {
                        s.freq[x as usize] = f;
                        s.dbs.push(x);
                    }
                }
                let freq = &s.freq;
                s.mask.retain(|&id| {
                    let (u, v) = self.index.ends(id);
                    freq[u as usize] > 0.0 && freq[v as usize] > 0.0
                });
                let weight = VertexHeld(&s.freq);
                state.refill(&self.index, &s.mask, weight, &mut s.local, |e| e);
                for &x in &s.dbs {
                    s.freq[x as usize] = 0.0;
                }
                true
            }
            Held::Edge(_) => {
                s.edge_freq.clear();
                let mut met = false;
                let (mut ia, mut oa, mut ib, mut ob) = (0, 0, 0, 0);
                while ia < a.join.len() && ib < b.join.len() {
                    let (x, y) = (a.join[ia], b.join[ib]);
                    if x < y {
                        oa += self.width(x);
                        ia += 1;
                    } else if y < x {
                        ob += self.width(y);
                        ib += 1;
                    } else {
                        met = true;
                        if let Some(f) = self.and(x, &a.words[oa..], &b.words[ob..], &mut s.words) {
                            s.edge_freq.push(f);
                            s.dbs.push(x);
                        }
                        oa += self.width(x);
                        ob += self.width(x);
                        ia += 1;
                        ib += 1;
                    }
                }
                if !met {
                    return false;
                }
                let weight = EdgeHeld(&s.edge_freq);
                state.refill(&self.index, &s.dbs, weight, &mut s.local, |e| e);
                true
            }
        }
    }

    /// The databases of positive frequency of the candidate last built in
    /// `s`, ascending by id — a vertex id, or an edge's index id — with
    /// those frequencies: the theme network's vertex or edge frequencies.
    pub fn frequencies(&self, s: &Scratch) -> Vec<(u32, f64)> {
        let mut off = 0;
        s.dbs
            .iter()
            .map(|&id| {
                let width = self.width(id);
                let support: u32 = s.words[off..off + width]
                    .iter()
                    .map(|w| w.count_ones())
                    .sum();
                off += width;
                (id, support as f64 / self.h[id as usize] as f64)
            })
            .collect()
    }

    /// Appends to `words` the AND of database `id`'s two tidsets opening
    /// `a` and `b`, and returns its frequency; `None`, appending nothing,
    /// when the AND is empty.
    #[inline]
    fn and(&self, id: u32, a: &[u64], b: &[u64], words: &mut Vec<u64>) -> Option<f64> {
        let width = self.width(id);
        let mut support = 0usize;
        for (x, y) in a[..width].iter().zip(&b[..width]) {
            let w = x & y;
            support += w.count_ones() as usize;
            words.push(w);
        }
        if support == 0 {
            words.truncate(words.len() - width);
            return None;
        }
        Some(support as f64 / self.h[id as usize] as f64)
    }

    /// Appends to `out` what the candidate last built in `s` hands its
    /// children when they join on `join` (sorted index ids within its
    /// mask): `join`, and the tidsets of the databases on it.
    pub fn carry(&self, join: &[u32], s: &mut Scratch, out: &mut Carries) {
        out.join.extend_from_slice(join);
        let mut off = 0;
        match self.held {
            Held::Vertex(_) => {
                for &id in join {
                    let (u, v) = self.index.ends(id);
                    s.mark[u as usize] = true;
                    s.mark[v as usize] = true;
                }
                for &x in &s.dbs {
                    let width = self.width(x);
                    if s.mark[x as usize] {
                        s.mark[x as usize] = false;
                        out.dbs.push(x);
                        out.words.extend_from_slice(&s.words[off..off + width]);
                    }
                    off += width;
                }
            }
            Held::Edge(_) => {
                let mut next = join.iter().peekable();
                for &x in &s.dbs {
                    let width = self.width(x);
                    if next.next_if_eq(&&x).is_some() {
                        out.words.extend_from_slice(&s.words[off..off + width]);
                    }
                    off += width;
                }
                debug_assert!(next.peek().is_none(), "join within the mask");
            }
        }
        out.seal();
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
