//! The Theme Community Tree (TC-Tree) — §6.2, Algorithm 4.
//!
//! A TC-Tree is a set-enumeration tree over the item order `≺` in which
//! node `n` stores one item `s_n` and the decomposed maximal pattern truss
//! `L_p` of the pattern `p` spelled by the root-to-`n` path. Subtrees whose
//! root has `L_p = ∅` are pruned entirely (Proposition 5.2). Children are
//! generated by joining a node with its right siblings; the candidate's
//! truss is computed inside the *intersection* of the two parents' trusses
//! (Proposition 5.3), exactly as TCFI does. The network may hold its
//! databases on vertices or on edges (§8): the builder sees it only through
//! [`ThemeSource`], and a node's `L_p` is a level list of edge sets either
//! way.
//!
//! Construction is the [`tc_core::lattice`] walk TCFI runs too, with the
//! decomposition as its evaluator: barrier-free on the work-stealing
//! executor past level 1, each node's `E*_p(0)` computed once as what its
//! children join on. The walk lists the network's triangles once and
//! hands the evaluator each candidate as a mask of them
//! ([`TrussDecomposition::decompose_state`] peels it), so no node's theme
//! network is materialised; the levels are those
//! [`TrussDecomposition::decompose`] finds on the materialised network,
//! bit for bit. The walk finds nodes in scheduling order; the builder
//! then numbers them level by level by `(parent's id, item)`, which is the
//! breadth-first order of Algorithm 4 — so the node arena (and therefore
//! every serialized form of the tree) is byte-identical at any thread
//! count.

use tc_core::lattice::{self, Evaluator};
use tc_core::peel::PeelState;
use tc_core::{MinerStats, ThemeSource, TrussDecomposition};
use tc_txdb::{Item, Pattern};
use tc_util::{HeapSize, Stopwatch};

/// One TC-Tree node.
#[derive(Debug, Clone)]
pub struct TcNode {
    /// `s_n` — the item appended by this node (meaningless for the root).
    pub item: Item,
    /// Parent node id (`0` for the root; the root points to itself).
    pub parent: u32,
    /// Child node ids, ascending by item.
    pub children: Vec<u32>,
    /// `L_p` — the decomposed maximal pattern truss (empty at the root),
    /// which also holds `p`.
    pub truss: TrussDecomposition,
}

impl TcNode {
    /// The full pattern spelled by the root path (the root holds `∅`).
    pub fn pattern(&self) -> &Pattern {
        &self.truss.pattern
    }
}

/// Build-time counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Wall-clock build time in seconds.
    pub build_secs: f64,
    /// Candidate patterns whose decomposition was attempted.
    pub candidates: usize,
    /// Candidates pruned because the parents' trusses did not intersect.
    pub pruned_by_intersection: usize,
    /// Decompositions run: one per candidate that survived the
    /// intersection prune (a theme network left without edges decomposes
    /// to nothing, but counts).
    pub decompositions: usize,
}

/// Configuration for [`TcTree::build`].
#[derive(Debug, Clone)]
pub struct TcTreeBuilder {
    /// Worker threads for the whole lattice walk — layer-1 decompositions
    /// and every sibling join below them alike (the paper parallelises
    /// layer 1 with 4 OpenMP threads; we run the whole walk on the
    /// work-stealing executor).
    pub threads: usize,
    /// Maximum pattern length to index (`usize::MAX` = unbounded).
    pub max_len: usize,
}

impl Default for TcTreeBuilder {
    fn default() -> Self {
        TcTreeBuilder {
            threads: 4,
            max_len: usize::MAX,
        }
    }
}

/// The decomposition `L_p`: a candidate qualifies iff it is non-empty, and
/// its children join on `E*_p(0)`.
struct Decompose;

impl Evaluator for Decompose {
    type Value = TrussDecomposition;

    fn evaluate(
        &self,
        pattern: Pattern,
        state: &mut PeelState,
        core: &mut Vec<u32>,
        _: &mut MinerStats,
    ) -> Option<TrussDecomposition> {
        let truss = TrussDecomposition::decompose_state(pattern, state, core);
        (!truss.is_empty()).then_some(truss)
    }
}

impl TcTreeBuilder {
    /// Builds the TC-Tree of `network` — a vertex or an edge (§8) database
    /// network — by Algorithm 4, as the lattice walk on `threads` workers.
    ///
    /// The arena is numbered level by level, each level sorted by
    /// `(parent's id, item)`: the order in which the serial breadth-first
    /// walk discovers the nodes, so the arena is **byte-identical**
    /// (through any serializer) at every thread count.
    pub fn build<N: ThemeSource + ?Sized>(&self, network: &N) -> TcTree {
        let sw = Stopwatch::start();
        let (mut found, walked) = lattice::walk(network, &Decompose, self.threads, self.max_len);

        // Arena ids, level by level: a level is sorted by its parents' arena
        // ids, which the level above was given first. Walk ids are `1..=n`.
        let mut arena_id = vec![0u32; found.len() + 1];
        found.sort_unstable_by_key(|n| n.value.pattern.len());
        let mut next = 1;
        for level in found.chunk_by_mut(|a, b| a.value.pattern.len() == b.value.pattern.len()) {
            level.sort_unstable_by_key(|n| (arena_id[n.parent as usize], n.item));
            for n in level.iter() {
                arena_id[n.id as usize] = next;
                next += 1;
            }
        }

        let mut nodes = Vec::with_capacity(found.len() + 1);
        nodes.push(TcNode {
            item: Item(0),
            parent: 0,
            children: Vec::new(),
            truss: TrussDecomposition::default(),
        });
        for n in found {
            let id = nodes.len() as u32;
            let parent = arena_id[n.parent as usize];
            nodes[parent as usize].children.push(id);
            nodes.push(TcNode {
                item: n.item,
                parent,
                children: Vec::new(),
                truss: n.value,
            });
        }

        let stats = BuildStats {
            build_secs: sw.elapsed_secs(),
            candidates: walked.candidates_generated,
            pruned_by_intersection: walked.pruned_by_intersection,
            decompositions: walked.candidates_generated - walked.pruned_by_intersection,
        };
        TcTree { nodes, stats }
    }
}

/// The built index.
#[derive(Debug, Clone)]
pub struct TcTree {
    pub(crate) nodes: Vec<TcNode>,
    stats: BuildStats,
}

impl TcTree {
    /// Builds with default settings (4 threads, unbounded length).
    pub fn build<N: ThemeSource + ?Sized>(network: &N) -> TcTree {
        TcTreeBuilder::default().build(network)
    }

    /// Reassembles a tree from an explicit node arena (used by the text
    /// loader here and by the `tc-store` segment reader).
    ///
    /// The first node must be the root; parents must precede children, and
    /// each node's `children` list must mirror the `parent` links.
    pub fn from_nodes(nodes: Vec<TcNode>) -> TcTree {
        debug_assert!(!nodes.is_empty());
        TcTree {
            nodes,
            stats: BuildStats::default(),
        }
    }

    /// Build-time counters.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Number of nodes **excluding** the root — each stores one non-empty
    /// decomposed maximal pattern truss (the paper's Table 3 "#Nodes").
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Access a node by id (`0` = root).
    pub fn node(&self, id: u32) -> &TcNode {
        &self.nodes[id as usize]
    }

    /// All nodes including the root, in arena order (parents before
    /// children).
    pub fn nodes(&self) -> &[TcNode] {
        &self.nodes
    }

    /// Maximum pattern length indexed (tree depth).
    pub fn max_depth(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.pattern().len())
            .max()
            .unwrap_or(0)
    }

    /// Node ids whose pattern has exactly `len` items (QBP sampling pool).
    pub fn nodes_at_depth(&self, len: usize) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&id| self.nodes[id as usize].pattern().len() == len)
            .collect()
    }

    /// The global nontrivial threshold bound: `max_p α*_p`. Queries with
    /// `α_q` at or above this return nothing.
    pub fn alpha_upper_bound(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| n.truss.max_alpha())
            .fold(0.0, f64::max)
    }
}

impl HeapSize for TcTree {
    fn heap_size(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.children.capacity() * std::mem::size_of::<u32>() + n.truss.heap_size())
            .sum::<usize>()
            + self.nodes.capacity() * std::mem::size_of::<TcNode>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::{DatabaseNetwork, DatabaseNetworkBuilder, Miner, TcfiMiner, ThemeNetwork};

    /// Triangles with themes {a,b}, {b,c} (sharing a vertex), {a,c} (far).
    fn network() -> DatabaseNetwork {
        let mut b = DatabaseNetworkBuilder::new();
        let ia = b.intern_item("a");
        let ib = b.intern_item("b");
        let ic = b.intern_item("c");
        for v in 0..3u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[ia, ib]);
            }
        }
        for v in 3..6u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[ib, ic]);
            }
        }
        for v in 6..9u32 {
            for _ in 0..4 {
                b.add_transaction(v, &[ia, ic]);
            }
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(3, 5);
        b.add_edge(6, 7).add_edge(7, 8).add_edge(6, 8);
        b.build().unwrap()
    }

    #[test]
    fn tree_indexes_every_qualified_pattern() {
        let net = network();
        let tree = TcTree::build(&net);
        // Qualified patterns at α=0: {a},{b},{c},{a,b},{b,c},{a,c}.
        assert_eq!(tree.num_nodes(), 6);
        let mined = TcfiMiner::default().mine(&net, 0.0);
        assert_eq!(tree.num_nodes(), mined.np());
    }

    #[test]
    fn node_patterns_match_paths() {
        let net = network();
        let tree = TcTree::build(&net);
        for id in 1..tree.nodes().len() as u32 {
            let node = tree.node(id);
            // Walk up to the root re-spelling the pattern.
            let mut items = vec![node.item];
            let mut cur = node.parent;
            while cur != 0 {
                items.push(tree.node(cur).item);
                cur = tree.node(cur).parent;
            }
            assert_eq!(&Pattern::new(items), node.pattern());
        }
    }

    #[test]
    fn children_sorted_and_items_increase_along_paths() {
        let net = network();
        let tree = TcTree::build(&net);
        for node in tree.nodes() {
            for w in node.children.windows(2) {
                assert!(tree.node(w[0]).item < tree.node(w[1]).item);
            }
            for &c in &node.children {
                if !node.pattern().is_empty() {
                    assert!(tree.node(c).item > node.item, "SE-tree item order");
                }
            }
        }
    }

    #[test]
    fn stored_trusses_match_direct_decomposition() {
        let net = network();
        let tree = TcTree::build(&net);
        for id in 1..tree.nodes().len() as u32 {
            let node = tree.node(id);
            let theme = ThemeNetwork::induce(&net, node.pattern());
            let direct = TrussDecomposition::decompose(&theme);
            assert_eq!(
                node.truss.edges_at(0.0),
                direct.edges_at(0.0),
                "{}",
                node.pattern()
            );
            assert_eq!(node.truss.num_levels(), direct.num_levels());
        }
    }

    #[test]
    fn empty_subtrees_pruned() {
        // No pattern {a,b,c} node exists (no vertex carries all three).
        let net = network();
        let tree = TcTree::build(&net);
        assert!(tree.nodes().iter().all(|n| n.pattern().len() <= 2));
        assert_eq!(tree.max_depth(), 2);
    }

    #[test]
    fn single_threaded_build_identical() {
        let net = network();
        let t1 = TcTreeBuilder {
            threads: 1,
            max_len: usize::MAX,
        }
        .build(&net);
        let t4 = TcTreeBuilder {
            threads: 4,
            max_len: usize::MAX,
        }
        .build(&net);
        assert_eq!(t1.num_nodes(), t4.num_nodes());
        let pats1: Vec<_> = t1.nodes().iter().map(|n| n.pattern().clone()).collect();
        let pats4: Vec<_> = t4.nodes().iter().map(|n| n.pattern().clone()).collect();
        assert_eq!(pats1, pats4);
    }

    #[test]
    fn max_len_caps_depth() {
        let net = network();
        let tree = TcTreeBuilder {
            threads: 2,
            max_len: 1,
        }
        .build(&net);
        assert_eq!(tree.max_depth(), 1);
        assert_eq!(tree.num_nodes(), 3);
    }

    #[test]
    fn alpha_upper_bound_positive() {
        let net = network();
        let tree = TcTree::build(&net);
        assert!(tree.alpha_upper_bound() > 0.0);
    }

    #[test]
    fn nodes_at_depth() {
        let net = network();
        let tree = TcTree::build(&net);
        assert_eq!(tree.nodes_at_depth(1).len(), 3);
        assert_eq!(tree.nodes_at_depth(2).len(), 3);
        assert_eq!(tree.nodes_at_depth(3).len(), 0);
        // Depth 0 is the root only.
        assert_eq!(tree.nodes_at_depth(0), vec![0]);
    }

    #[test]
    fn empty_network_builds_root_only() {
        let mut b = DatabaseNetworkBuilder::new();
        b.ensure_vertex(1);
        let net = b.build().unwrap();
        let tree = TcTree::build(&net);
        assert_eq!(tree.num_nodes(), 0);
        assert_eq!(tree.alpha_upper_bound(), 0.0);
    }
}
