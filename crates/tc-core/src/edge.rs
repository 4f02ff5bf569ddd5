//! Edge database networks — the paper's §8 future work, implemented.
//!
//! *"As future works, we will extend TCFI and TC-Tree to find theme
//! communities from edge database network, where each edge is associated
//! with a transaction database that describes complex relationships
//! between vertices."*
//!
//! The lift is natural. In an **edge database network** every edge `e`
//! carries a transaction database, giving pattern frequencies `f_e(p)`.
//! The theme network `G_p` is the subgraph of edges with `f_e(p) > 0`;
//! the cohesion of an edge is
//!
//! ```text
//! eco_ij(C) = Σ_{△ijk ⊆ C} min(f_ij(p), f_ik(p), f_jk(p))
//! ```
//!
//! — the sum over triangles **whose three edges all survive in `C`** of the
//! minimum pattern frequency among those three edges. Pattern trusses,
//! maximality, anti-monotonicity (both graph and pattern) and the
//! intersection property all carry over, because `f_e` is anti-monotone in
//! `p` exactly like vertex frequencies; the proofs of Theorems 5.1/6.1
//! rewrite verbatim with edge frequencies in place of vertex frequencies.
//!
//! The extension is therefore a **network type, not a second engine**:
//! [`EdgeDatabaseNetwork`] is a [`ThemeSource`] whose theme networks carry
//! [`crate::theme::Frequencies::Edge`], and everything downstream —
//! [`crate::maximal_pattern_truss`], [`crate::TrussDecomposition`],
//! [`crate::TcfiMiner`], [`crate::ParallelTcfiMiner`] and `tc-index`'s
//! `TcTreeBuilder` — is the code that serves vertex database networks.

use crate::theme::{Frame, Held, ThemeNetwork, ThemeSource};
use crate::truss::PatternTruss;
use tc_graph::{EdgeKey, VertexId};
use tc_txdb::database::TransactionDbBuilder;
use tc_txdb::{Item, ItemSpace, Pattern, TransactionDb};
use tc_util::FxHashMap;

/// Errors raised while assembling an [`EdgeDatabaseNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeBuildError {
    /// A transaction used an [`Item`] never interned in the item space.
    UnknownItem(Item),
    /// A transaction referenced an edge never added.
    UnknownEdge(EdgeKey),
}

impl std::fmt::Display for EdgeBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeBuildError::UnknownItem(i) => write!(f, "item {i} was not interned"),
            EdgeBuildError::UnknownEdge(e) => write!(f, "edge {e:?} was never added"),
        }
    }
}

impl std::error::Error for EdgeBuildError {}

/// Builder for [`EdgeDatabaseNetwork`].
#[derive(Debug, Default)]
pub struct EdgeDatabaseNetworkBuilder {
    items: ItemSpace,
    edges: Vec<EdgeKey>,
    databases: FxHashMap<EdgeKey, TransactionDbBuilder>,
}

impl EdgeDatabaseNetworkBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an item name.
    pub fn intern_item(&mut self, name: &str) -> Item {
        self.items.intern(name)
    }

    /// Adds the undirected edge `{u, v}` (idempotent).
    ///
    /// # Panics
    /// Panics on self loops.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert_ne!(u, v, "self-loop rejected");
        let key = tc_graph::edge_key(u, v);
        if !self.databases.contains_key(&key) {
            self.edges.push(key);
            self.databases.insert(key, TransactionDbBuilder::new());
        }
        self
    }

    /// Appends a transaction to the database of edge `{u, v}`, adding the
    /// edge if needed.
    pub fn add_transaction(&mut self, u: VertexId, v: VertexId, items: &[Item]) -> &mut Self {
        self.add_edge(u, v);
        let key = tc_graph::edge_key(u, v);
        self.databases
            .get_mut(&key)
            .expect("edge just ensured")
            .add_transaction(items.iter().copied());
        self
    }

    /// Freezes into an immutable network.
    pub fn build(mut self) -> Result<EdgeDatabaseNetwork, EdgeBuildError> {
        self.edges.sort_unstable();
        self.edges.dedup();
        let num_items = self.items.len() as u32;
        let mut databases = Vec::with_capacity(self.edges.len());
        for key in &self.edges {
            let db = self
                .databases
                .remove(key)
                .expect("a builder per edge")
                .build();
            for item in db.items() {
                if item.0 >= num_items {
                    return Err(EdgeBuildError::UnknownItem(item));
                }
            }
            databases.push(db);
        }
        // Inverted index: item -> edges with positive frequency.
        let mut item_index: FxHashMap<Item, Vec<EdgeKey>> = FxHashMap::default();
        for (&key, db) in self.edges.iter().zip(&databases) {
            for item in db.items() {
                if db.item_frequency(item) > 0.0 {
                    item_index.entry(item).or_default().push(key);
                }
            }
        }
        for list in item_index.values_mut() {
            list.sort_unstable();
        }
        Ok(EdgeDatabaseNetwork {
            edges: self.edges,
            databases,
            items: self.items,
            item_index,
        })
    }
}

/// A network whose **edges** carry transaction databases (§8).
#[derive(Debug, Clone)]
pub struct EdgeDatabaseNetwork {
    /// All edges, canonical and sorted.
    edges: Vec<EdgeKey>,
    /// The database of each edge, in `edges` order.
    databases: Vec<TransactionDb>,
    items: ItemSpace,
    item_index: FxHashMap<Item, Vec<EdgeKey>>,
}

impl EdgeDatabaseNetwork {
    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct endpoint vertices.
    pub fn num_vertices(&self) -> usize {
        tc_graph::ktruss::edge_set_vertices(&self.edges).len()
    }

    /// The item space.
    pub fn item_space(&self) -> &ItemSpace {
        &self.items
    }

    /// All edges, sorted.
    pub fn edges(&self) -> &[EdgeKey] {
        &self.edges
    }

    /// The database of edge `{u, v}` if the edge exists.
    pub fn database(&self, u: VertexId, v: VertexId) -> Option<&TransactionDb> {
        let i = self.edges.binary_search(&tc_graph::edge_key(u, v)).ok()?;
        Some(&self.databases[i])
    }

    /// The database of the `id`th edge of [`EdgeDatabaseNetwork::edges`].
    pub(crate) fn database_at(&self, id: u32) -> &TransactionDb {
        &self.databases[id as usize]
    }

    /// `f_e(p)` — frequency of `pattern` on edge `{u, v}` (0 if absent).
    pub fn frequency(&self, u: VertexId, v: VertexId, pattern: &Pattern) -> f64 {
        self.database(u, v).map_or(0.0, |db| db.frequency(pattern))
    }

    /// Items used on at least one edge, sorted.
    pub fn items_in_use(&self) -> Vec<Item> {
        let mut items: Vec<Item> = self.item_index.keys().copied().collect();
        items.sort_unstable();
        items
    }

    /// Edges where `item` has positive frequency (sorted).
    pub fn edges_with_item(&self, item: Item) -> &[EdgeKey] {
        self.item_index.get(&item).map_or(&[], Vec::as_slice)
    }

    /// The edges that carry every item of `pattern` (sorted); frequency may
    /// still be zero when the items never share a transaction.
    fn candidate_edges(&self, pattern: &Pattern) -> Vec<EdgeKey> {
        let mut lists: Vec<&[EdgeKey]> = pattern.iter().map(|i| self.edges_with_item(i)).collect();
        lists.sort_by_key(|l| l.len());
        let Some((first, rest)) = lists.split_first() else {
            return Vec::new();
        };
        rest.iter()
            .fold(first.to_vec(), |acc, l| tc_util::sorted::intersect(&acc, l))
    }

    /// `G_p` over `candidates` (sorted): the edges among them with
    /// `f_e(p) > 0`, carrying those frequencies.
    fn theme_over(&self, pattern: &Pattern, candidates: &[EdgeKey]) -> ThemeNetwork {
        let (edges, freqs): (Vec<EdgeKey>, Vec<f64>) = candidates
            .iter()
            .filter_map(|&(u, v)| {
                let f = self.frequency(u, v, pattern);
                (f > 0.0).then_some(((u, v), f))
            })
            .unzip();
        ThemeNetwork::from_themed_edges(pattern, &edges, freqs)
    }

    /// Maximal **edge-pattern truss** at threshold `alpha`, over the whole
    /// network or restricted to `within` (sorted) — shorthand for
    /// [`crate::maximal_pattern_truss`] on this network's theme network.
    pub fn maximal_edge_pattern_truss(
        &self,
        pattern: &Pattern,
        alpha: f64,
        within: Option<&[EdgeKey]>,
    ) -> PatternTruss {
        let theme = match within {
            Some(edges) => self.theme_within(pattern, edges),
            None => self.theme(pattern),
        };
        crate::maximal_pattern_truss(&theme, alpha)
    }
}

impl ThemeSource for EdgeDatabaseNetwork {
    fn items_in_use(&self) -> Vec<Item> {
        EdgeDatabaseNetwork::items_in_use(self)
    }

    fn theme(&self, pattern: &Pattern) -> ThemeNetwork {
        self.theme_over(pattern, &self.candidate_edges(pattern))
    }

    fn theme_within(&self, pattern: &Pattern, edges: &[EdgeKey]) -> ThemeNetwork {
        self.theme_over(pattern, edges)
    }

    fn frame(&self) -> Frame<'_> {
        // The graph's edges, numbered in `(u, v)` order, are `self.edges`.
        let graph = tc_graph::UGraph::from_edges(self.edges.iter().copied());
        debug_assert!(graph.edges().eq(self.edges.iter().copied()));
        Frame::new(&graph, Held::Edge(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Miner, TcfiMiner};

    /// Triangle 0-1-2 whose edges all frequently discuss "rust" (plus some
    /// low-frequency "noise"); edge (2,3) discusses "cooking" only; triangle
    /// 3-4-5 discusses "rust" on 2 of 3 edges only (no fully-themed
    /// triangle → no truss).
    fn network() -> EdgeDatabaseNetwork {
        let mut b = EdgeDatabaseNetworkBuilder::new();
        let rust = b.intern_item("rust");
        let cook = b.intern_item("cooking");
        let noise = b.intern_item("noise");
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            for _ in 0..4 {
                b.add_transaction(u, v, &[rust]);
            }
            b.add_transaction(u, v, &[noise]);
        }
        for _ in 0..3 {
            b.add_transaction(2, 3, &[cook]);
        }
        b.add_transaction(3, 4, &[rust]);
        b.add_transaction(4, 5, &[rust]);
        b.add_edge(3, 5); // no transactions at all
        b.build().unwrap()
    }

    #[test]
    fn shape() {
        let net = network();
        assert_eq!(net.num_edges(), 7);
        assert_eq!(net.num_vertices(), 6);
        let rust = net.item_space().get("rust").unwrap();
        assert_eq!(net.edges_with_item(rust).len(), 5);
    }

    #[test]
    fn edge_frequencies() {
        let net = network();
        let rust = Pattern::singleton(net.item_space().get("rust").unwrap());
        assert!((net.frequency(0, 1, &rust) - 0.8).abs() < 1e-12);
        assert_eq!(net.frequency(2, 3, &rust), 0.0);
        assert_eq!(net.frequency(3, 5, &rust), 0.0, "empty edge db");
        assert_eq!(net.frequency(9, 9, &rust), 0.0, "missing edge");
    }

    #[test]
    fn truss_keeps_fully_themed_triangle() {
        let net = network();
        let rust = Pattern::singleton(net.item_space().get("rust").unwrap());
        // Triangle 0-1-2: every edge f = 0.8 → eco = 0.8 per edge.
        let t = net.maximal_edge_pattern_truss(&rust, 0.5, None);
        assert_eq!(t.edges, vec![(0, 1), (0, 2), (1, 2)]);
        // The 3-4-5 triangle has a frequency-0 edge → never themed → no
        // triangle → its rust edges die at α ≥ 0.
        assert!(!t.contains_edge((3, 4)));
    }

    #[test]
    fn truss_vanishes_above_cohesion() {
        let net = network();
        let rust = Pattern::singleton(net.item_space().get("rust").unwrap());
        assert!(net.maximal_edge_pattern_truss(&rust, 0.8, None).is_empty());
    }

    #[test]
    fn cooking_theme_has_no_triangle() {
        let net = network();
        let cook = Pattern::singleton(net.item_space().get("cooking").unwrap());
        let t = net.maximal_edge_pattern_truss(&cook, 0.0, None);
        assert!(t.is_empty(), "cooking lives on a single edge — no triangle");
    }

    #[test]
    fn miner_end_to_end() {
        let net = network();
        // At α = 0.3: the rust triangle survives (eco = 0.8); the noise
        // triangle (eco = 0.2) and everything else die.
        let result = TcfiMiner::default().mine(&net, 0.3);
        assert_eq!(result.np(), 1);
        let rust = Pattern::singleton(net.item_space().get("rust").unwrap());
        assert_eq!(result.truss_of(&rust).unwrap().vertices, vec![0, 1, 2]);
        let communities = result.communities();
        assert_eq!(communities.len(), 1);

        // At α = 0.1 the low-frequency noise theme also qualifies.
        let result_low = TcfiMiner::default().mine(&net, 0.1);
        assert_eq!(result_low.np(), 2);
    }

    #[test]
    fn multi_item_edge_theme() {
        // Edges carrying {chat, code} together should form a pair theme.
        let mut b = EdgeDatabaseNetworkBuilder::new();
        let chat = b.intern_item("chat");
        let code = b.intern_item("code");
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            for _ in 0..5 {
                b.add_transaction(u, v, &[chat, code]);
            }
        }
        let net = b.build().unwrap();
        let result = TcfiMiner::default().mine(&net, 0.5);
        let pair = Pattern::new(vec![chat, code]);
        let t = result.truss_of(&pair).expect("pair theme");
        assert_eq!(t.num_edges(), 6, "both triangles fully themed");
        // Three qualified patterns: {chat}, {code}, {chat, code}.
        assert_eq!(result.np(), 3);
    }

    #[test]
    fn anti_monotonicity_carries_over() {
        let mut b = EdgeDatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        let y = b.intern_item("y");
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            for _ in 0..3 {
                b.add_transaction(u, v, &[x, y]);
            }
            b.add_transaction(u, v, &[x]);
        }
        let net = b.build().unwrap();
        for alpha in [0.0, 0.4, 0.7] {
            let cx = net.maximal_edge_pattern_truss(&Pattern::singleton(x), alpha, None);
            let cxy = net.maximal_edge_pattern_truss(&Pattern::new(vec![x, y]), alpha, None);
            assert!(cxy.is_subgraph_of(&cx), "Theorem 5.1 lift at α = {alpha}");
        }
    }

    #[test]
    fn intersection_restriction_is_sound() {
        // Mining {x,y} within C*_x ∩ C*_y equals mining it globally.
        let mut b = EdgeDatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        let y = b.intern_item("y");
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            let items: Vec<Item> = if u < 3 { vec![x, y] } else { vec![x] };
            for _ in 0..4 {
                b.add_transaction(u, v, &items);
            }
        }
        let net = b.build().unwrap();
        let cx = net.maximal_edge_pattern_truss(&Pattern::singleton(x), 0.5, None);
        let cy = net.maximal_edge_pattern_truss(&Pattern::singleton(y), 0.5, None);
        let inter = cx.intersect_edges(&cy);
        let global = net.maximal_edge_pattern_truss(&Pattern::new(vec![x, y]), 0.5, None);
        let restricted =
            net.maximal_edge_pattern_truss(&Pattern::new(vec![x, y]), 0.5, Some(&inter));
        assert_eq!(global.edges, restricted.edges);
    }

    #[test]
    fn builder_rejects_unknown_items() {
        let mut b = EdgeDatabaseNetworkBuilder::new();
        b.add_transaction(0, 1, &[Item(9)]);
        assert_eq!(b.build().unwrap_err(), EdgeBuildError::UnknownItem(Item(9)));
    }

    #[test]
    fn empty_network() {
        let net = EdgeDatabaseNetworkBuilder::new().build().unwrap();
        assert_eq!(net.num_edges(), 0);
        let r = TcfiMiner::default().mine(&net, 0.0);
        assert_eq!(r.np(), 0);
    }
}
