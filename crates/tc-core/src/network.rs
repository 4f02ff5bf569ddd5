//! The database network `G = (V, E, D, S)` (paper §3.1).

use std::sync::Arc;
use tc_graph::{EdgeKey, GraphBuilder, UGraph, VertexId};
use tc_txdb::database::TransactionDbBuilder;
use tc_txdb::{Item, ItemSpace, Pattern, TransactionDb};
use tc_util::{FxHashMap, HeapSize};

/// Errors raised while assembling a [`DatabaseNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge or transaction referenced a vertex id beyond `u32` limits.
    VertexOverflow,
    /// A transaction used an [`Item`] never interned in the item space.
    UnknownItem(Item),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::VertexOverflow => write!(f, "vertex id exceeds u32 range"),
            BuildError::UnknownItem(i) => write!(f, "item {i} was not interned in the item space"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Constructs a [`DatabaseNetwork`] incrementally.
///
/// ```
/// use tc_core::DatabaseNetworkBuilder;
///
/// let mut b = DatabaseNetworkBuilder::new();
/// let beer = b.intern_item("beer");
/// b.add_transaction(0, &[beer]);
/// b.add_transaction(1, &[beer]);
/// b.add_edge(0, 1);
/// let network = b.build().unwrap();
/// assert_eq!(network.num_vertices(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DatabaseNetworkBuilder {
    items: ItemSpace,
    graph: GraphBuilder,
    databases: Vec<TransactionDbBuilder>,
    max_vertex: Option<VertexId>,
}

impl DatabaseNetworkBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an item name, returning its id.
    pub fn intern_item(&mut self, name: &str) -> Item {
        self.items.intern(name)
    }

    /// Pre-registers an item space (e.g. from a generator's vocabulary).
    pub fn set_item_space(&mut self, items: ItemSpace) {
        self.items = items;
    }

    /// Read access to the item space under construction.
    pub fn item_space(&self) -> &ItemSpace {
        &self.items
    }

    fn touch(&mut self, v: VertexId) {
        self.max_vertex = Some(self.max_vertex.map_or(v, |m| m.max(v)));
        if self.databases.len() <= v as usize {
            self.databases
                .resize_with(v as usize + 1, TransactionDbBuilder::new);
        }
    }

    /// Appends a transaction (an itemset) to vertex `v`'s database.
    pub fn add_transaction(&mut self, v: VertexId, items: &[Item]) -> &mut Self {
        self.touch(v);
        self.databases[v as usize].add_transaction(items.iter().copied());
        self
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on self loops, like [`GraphBuilder::add_edge`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.touch(u);
        self.touch(v);
        self.graph.add_edge(u, v);
        self
    }

    /// Guarantees vertex `v` exists even if isolated and database-less.
    pub fn ensure_vertex(&mut self, v: VertexId) -> &mut Self {
        self.touch(v);
        self.graph.ensure_vertex(v);
        self
    }

    /// Freezes into an immutable [`DatabaseNetwork`].
    pub fn build(mut self) -> Result<DatabaseNetwork, BuildError> {
        if let Some(m) = self.max_vertex {
            self.graph.ensure_vertex(m);
        }
        let graph = self.graph.build();
        let n = graph.num_vertices();
        let num_items = self.items.len() as u32;
        let mut databases = Vec::with_capacity(n);
        for b in self.databases.drain(..) {
            databases.push(Arc::new(b.build()));
        }
        databases.resize_with(n, || Arc::new(TransactionDb::new()));

        // Validate items and build the inverted index.
        for db in &databases {
            for item in db.items() {
                if item.0 >= num_items {
                    return Err(BuildError::UnknownItem(item));
                }
            }
        }
        let item_index = build_item_index(&databases);
        Ok(DatabaseNetwork {
            graph,
            databases,
            items: self.items,
            item_index,
        })
    }
}

fn build_item_index(databases: &[Arc<TransactionDb>]) -> FxHashMap<Item, Vec<(VertexId, f64)>> {
    let mut index: FxHashMap<Item, Vec<(VertexId, f64)>> = FxHashMap::default();
    for (v, db) in databases.iter().enumerate() {
        for item in db.items() {
            let f = db.item_frequency(item);
            if f > 0.0 {
                index.entry(item).or_default().push((v as VertexId, f));
            }
        }
    }
    for list in index.values_mut() {
        list.sort_unstable_by_key(|&(v, _)| v);
    }
    index
}

/// An immutable database network: graph + per-vertex transaction databases
/// + the global item space, with an inverted `item → vertices` index.
///
/// Vertex databases are shared (`Arc`) so that BFS-sampled subnetworks
/// (§7.1) reuse them without copying.
#[derive(Debug, Clone)]
pub struct DatabaseNetwork {
    graph: UGraph,
    databases: Vec<Arc<TransactionDb>>,
    items: ItemSpace,
    /// item → sorted `(vertex, f_v(item))` pairs with positive frequency.
    item_index: FxHashMap<Item, Vec<(VertexId, f64)>>,
}

impl DatabaseNetwork {
    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges `|E|`.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// The underlying simple graph.
    pub fn graph(&self) -> &UGraph {
        &self.graph
    }

    /// The global item space `S`.
    pub fn item_space(&self) -> &ItemSpace {
        &self.items
    }

    /// Vertex `v`'s transaction database.
    ///
    /// # Panics
    /// Panics when `v` is out of range.
    pub fn database(&self, v: VertexId) -> &TransactionDb {
        &self.databases[v as usize]
    }

    /// `f_v(p)`: frequency of `pattern` on vertex `v`.
    pub fn frequency(&self, v: VertexId, pattern: &Pattern) -> f64 {
        self.databases[v as usize].frequency(pattern)
    }

    /// The vertices on which `item` has positive frequency, with those
    /// frequencies, sorted by vertex id. Empty slice if the item occurs
    /// nowhere.
    pub fn vertices_with_item(&self, item: Item) -> &[(VertexId, f64)] {
        self.item_index.get(&item).map_or(&[], Vec::as_slice)
    }

    /// The items that occur in at least one vertex database, sorted by id.
    /// This is the level-1 candidate set of TCFA/TCFI — items of `S` never
    /// stored anywhere cannot form a theme.
    pub fn items_in_use(&self) -> Vec<Item> {
        let mut items: Vec<Item> = self.item_index.keys().copied().collect();
        items.sort_unstable();
        items
    }

    /// The candidate vertex set for a pattern: vertices whose database
    /// contains **every** item of the pattern (sorted ascending). Frequency
    /// may still be zero (items never co-occurring in one transaction), so
    /// callers must re-check with [`DatabaseNetwork::frequency`].
    pub fn candidate_vertices(&self, pattern: &Pattern) -> Vec<VertexId> {
        let mut lists: Vec<&[(VertexId, f64)]> = Vec::with_capacity(pattern.len());
        for item in pattern.iter() {
            let list = self.vertices_with_item(item);
            if list.is_empty() {
                return Vec::new();
            }
            lists.push(list);
        }
        if lists.is_empty() {
            return (0..self.num_vertices() as VertexId).collect();
        }
        lists.sort_by_key(|l| l.len());
        let mut acc: Vec<VertexId> = lists[0].iter().map(|&(v, _)| v).collect();
        // The lists carry a frequency per entry, so `acc` (born from the
        // shortest) probes them instead of merging through `tc_util::sorted`.
        for list in &lists[1..] {
            acc.retain(|v| list.binary_search_by_key(v, |&(w, _)| w).is_ok());
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// The subnetwork spanned by `edges` (e.g. a BFS sample, §7.1).
    ///
    /// Vertices incident to the edges are renumbered compactly; their
    /// databases are shared with `self` via `Arc`. The item space is carried
    /// over unchanged.
    pub fn induced_subnetwork(&self, edges: &[EdgeKey]) -> DatabaseNetwork {
        let vertices = tc_graph::ktruss::edge_set_vertices(edges);
        let remap: FxHashMap<VertexId, VertexId> = vertices
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as VertexId))
            .collect();
        let mut gb = GraphBuilder::with_capacity(edges.len());
        for &(u, v) in edges {
            gb.add_edge(remap[&u], remap[&v]);
        }
        if let Some(last) = vertices.len().checked_sub(1) {
            gb.ensure_vertex(last as VertexId);
        }
        let databases: Vec<Arc<TransactionDb>> = vertices
            .iter()
            .map(|&old| Arc::clone(&self.databases[old as usize]))
            .collect();
        let item_index = build_item_index(&databases);
        DatabaseNetwork {
            graph: gb.build(),
            databases,
            items: self.items.clone(),
            item_index,
        }
    }

    /// Summary statistics in the shape of the paper's Table 2.
    pub fn stats(&self) -> NetworkStats {
        let mut transactions = 0usize;
        let mut items_total = 0usize;
        for db in &self.databases {
            transactions += db.num_transactions();
            items_total += db.total_item_occurrences();
        }
        NetworkStats {
            vertices: self.num_vertices(),
            edges: self.num_edges(),
            transactions,
            items_total,
            items_unique: self.items.len(),
        }
    }
}

impl HeapSize for DatabaseNetwork {
    fn heap_size(&self) -> usize {
        let dbs: usize = self.databases.iter().map(|d| d.heap_size()).sum();
        let index: usize = self
            .item_index
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<(VertexId, f64)>())
            .sum();
        self.graph.heap_size() + dbs + index + self.items.heap_size()
    }
}

/// The Table 2 statistics of a database network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkStats {
    /// `|V|`.
    pub vertices: usize,
    /// `|E|`.
    pub edges: usize,
    /// Total transactions across all vertex databases.
    pub transactions: usize,
    /// Total item occurrences stored in all vertex databases.
    pub items_total: usize,
    /// `|S|` — unique items.
    pub items_unique: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> DatabaseNetwork {
        let mut b = DatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        let y = b.intern_item("y");
        let z = b.intern_item("z");
        // v0: x twice, y once; v1: x once; v2: y,z; v3: empty db.
        b.add_transaction(0, &[x, y]);
        b.add_transaction(0, &[x]);
        b.add_transaction(1, &[x]);
        b.add_transaction(2, &[y, z]);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn basic_shape() {
        let n = toy();
        assert_eq!(n.num_vertices(), 4);
        assert_eq!(n.num_edges(), 4);
        assert_eq!(n.item_space().len(), 3);
    }

    #[test]
    fn frequencies() {
        let n = toy();
        let x = n.item_space().get("x").unwrap();
        let y = n.item_space().get("y").unwrap();
        assert_eq!(n.frequency(0, &Pattern::singleton(x)), 1.0);
        assert_eq!(n.frequency(0, &Pattern::singleton(y)), 0.5);
        assert_eq!(n.frequency(1, &Pattern::singleton(y)), 0.0);
        assert_eq!(n.frequency(3, &Pattern::singleton(x)), 0.0, "empty db");
    }

    #[test]
    fn inverted_index() {
        let n = toy();
        let x = n.item_space().get("x").unwrap();
        let vx = n.vertices_with_item(x);
        assert_eq!(vx.len(), 2);
        assert_eq!(vx[0].0, 0);
        assert_eq!(vx[1], (1, 1.0));
        let z = n.item_space().get("z").unwrap();
        assert_eq!(n.vertices_with_item(z), &[(2, 1.0)]);
    }

    #[test]
    fn candidate_vertices_intersects_lists() {
        let n = toy();
        let x = n.item_space().get("x").unwrap();
        let y = n.item_space().get("y").unwrap();
        let p = Pattern::new(vec![x, y]);
        assert_eq!(n.candidate_vertices(&p), vec![0]);
        // x alone: vertices 0 and 1.
        assert_eq!(n.candidate_vertices(&Pattern::singleton(x)), vec![0, 1]);
    }

    #[test]
    fn candidate_vertices_empty_pattern_is_everyone() {
        let n = toy();
        assert_eq!(n.candidate_vertices(&Pattern::empty()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn candidate_vertices_unknown_item_is_empty() {
        let n = toy();
        let p = Pattern::singleton(Item(2)).with_item(Item(0));
        // {x, z}: no vertex has both.
        assert!(n.candidate_vertices(&p).is_empty());
    }

    #[test]
    fn subnetwork_shares_databases_and_remaps() {
        let n = toy();
        let sub = n.induced_subnetwork(&[(0, 1), (0, 2)]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        // Old vertex 0 becomes new vertex 0 (sorted order of {0,1,2}).
        let x = sub.item_space().get("x").unwrap();
        assert_eq!(sub.frequency(0, &Pattern::singleton(x)), 1.0);
        // Databases are shared, not copied.
        assert!(Arc::ptr_eq(&n.databases[0], &sub.databases[0]));
    }

    #[test]
    fn stats_table2() {
        let n = toy();
        let s = n.stats();
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.transactions, 4);
        assert_eq!(s.items_total, 2 + 1 + 1 + 2);
        assert_eq!(s.items_unique, 3);
    }

    #[test]
    fn vertices_without_transactions_get_empty_dbs() {
        let mut b = DatabaseNetworkBuilder::new();
        b.add_edge(0, 5);
        let n = b.build().unwrap();
        assert_eq!(n.num_vertices(), 6);
        assert_eq!(n.database(3).num_transactions(), 0);
    }

    #[test]
    fn unknown_item_rejected() {
        let mut b = DatabaseNetworkBuilder::new();
        // Item(7) was never interned.
        b.add_transaction(0, &[Item(7)]);
        b.ensure_vertex(1);
        assert_eq!(b.build().unwrap_err(), BuildError::UnknownItem(Item(7)));
    }

    #[test]
    fn builder_facade_docs_shape() {
        // The README / lib.rs doctest scenario: 3-clique all buying the pair.
        let mut b = DatabaseNetworkBuilder::new();
        let beer = b.intern_item("beer");
        let diapers = b.intern_item("diapers");
        for v in 0..3u32 {
            for _ in 0..10 {
                b.add_transaction(v, &[beer, diapers]);
            }
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
        let n = b.build().unwrap();
        let p = Pattern::new(vec![beer, diapers]);
        for v in 0..3 {
            assert_eq!(n.frequency(v, &p), 1.0);
        }
    }
}
