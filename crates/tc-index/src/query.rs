//! TC-Tree query answering — §6.3, Algorithm 5.
//!
//! A query `(q, α_q)` asks for every maximal pattern truss
//! `C*_p(α_q) ≠ ∅` with `p ⊆ q`. The answer is collected by a breadth-first
//! walk that prunes (a) subtrees whose branching item is not in `q` (no
//! descendant pattern can be a sub-pattern of `q`) and (b) subtrees whose
//! node truss is already empty at `α_q` (Proposition 5.2) — read off the
//! node's `α*_p` before its truss is rebuilt, as the segment walk prunes.

use crate::tree::TcTree;
use tc_core::{extract_communities, PatternTruss, ThemeCommunity};
use tc_txdb::Pattern;
use tc_util::{float, Stopwatch};

/// The answer to a TC-Tree query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The query pattern `q`.
    pub query: Pattern,
    /// The threshold `α_q`.
    pub alpha: f64,
    /// Every non-empty `C*_p(α_q)` with `p ⊆ q`, in tree BFS order.
    pub trusses: Vec<PatternTruss>,
    /// Nodes whose truss was reconstructed non-empty — the paper's
    /// "Retrieved Nodes (RN)" metric of Figure 5.
    pub retrieved_nodes: usize,
    /// Total nodes visited during the walk (including pruned frontier).
    pub visited_nodes: usize,
    /// Wall-clock query time in seconds.
    pub elapsed_secs: f64,
}

impl QueryResult {
    /// Splits every retrieved truss into theme communities.
    pub fn communities(&self) -> Vec<ThemeCommunity> {
        self.trusses.iter().flat_map(extract_communities).collect()
    }
}

impl TcTree {
    /// Algorithm 5: answers `(q, α_q)`.
    pub fn query(&self, q: &Pattern, alpha_q: f64) -> QueryResult {
        let sw = Stopwatch::start();
        let mut trusses = Vec::new();
        let mut visited = 0usize;
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(nf) = queue.pop_front() {
            for &nc in &self.node(nf).children {
                let node = self.node(nc);
                visited += 1;
                // Line 4: prune subtrees branching on items outside q.
                if !q.contains(node.item) {
                    continue;
                }
                // Line 6 before line 5: C*_pc(α_q) = ∅ for α_q ≥ α*_pc, which
                // prunes the subtree (Proposition 5.2) without rebuilding it —
                // the bound the segment walk reads off its directory.
                if !node
                    .truss
                    .max_alpha()
                    .is_some_and(|a| float::gt_eps(a, alpha_q))
                {
                    continue;
                }
                // Line 5: reconstruct C*_pc(α_q) from L_pc (Equation 1).
                let truss = node.truss.truss_at(alpha_q);
                if truss.is_empty() {
                    continue;
                }
                trusses.push(truss);
                queue.push_back(nc);
            }
        }
        QueryResult {
            query: q.clone(),
            alpha: alpha_q,
            retrieved_nodes: trusses.len(),
            visited_nodes: visited,
            trusses,
            elapsed_secs: sw.elapsed_secs(),
        }
    }

    /// Query-by-alpha (QBA, §7.3): `q = S`, so only `α_q` filters.
    pub fn query_by_alpha(&self, alpha_q: f64) -> QueryResult {
        // The full item set: every layer-1 item is a child of the root.
        let all_items: Pattern = self
            .node(0)
            .children
            .iter()
            .map(|&c| self.node(c).item)
            .collect();
        self.query(&all_items, alpha_q)
    }

    /// Query-by-pattern (QBP, §7.3): `α_q = 0`.
    pub fn query_by_pattern(&self, q: &Pattern) -> QueryResult {
        self.query(q, 0.0)
    }

    /// Community search through the index: every theme community containing
    /// `vertex` at threshold `alpha_q`, as `(pattern, community)` pairs in
    /// tree BFS order.
    ///
    /// Prunes whole subtrees once `vertex` leaves a node's truss — sound by
    /// Theorem 5.1 (`C*_{p'}(α) ⊆ C*_p(α)` for `p ⊆ p'`, so a vertex absent
    /// from `C*_p` is absent from every descendant's truss) — and, as
    /// [`TcTree::query`] does, reads `α*_p` first, so a node whose truss is
    /// empty at `α_q` is pruned without rebuilding it.
    pub fn query_vertex(
        &self,
        vertex: tc_graph::VertexId,
        alpha_q: f64,
    ) -> Vec<(Pattern, tc_core::ThemeCommunity)> {
        let mut out = Vec::new();
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(nf) = queue.pop_front() {
            for &nc in &self.node(nf).children {
                let node = self.node(nc);
                if !node
                    .truss
                    .max_alpha()
                    .is_some_and(|a| float::gt_eps(a, alpha_q))
                {
                    continue;
                }
                let truss = node.truss.truss_at(alpha_q);
                if !truss.contains_vertex(vertex) {
                    continue; // prunes the subtree (Theorem 5.1)
                }
                if let Some(c) = extract_communities(&truss)
                    .into_iter()
                    .find(|c| c.vertices.binary_search(&vertex).is_ok())
                {
                    out.push((node.pattern().clone(), c));
                }
                queue.push_back(nc);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TcTreeBuilder;
    use tc_core::{DatabaseNetwork, DatabaseNetworkBuilder, Miner, TcfiMiner};

    fn network() -> DatabaseNetwork {
        // Same fixture as tree.rs: three triangles themed {a,b}, {b,c}, {a,c}.
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
    fn qba_matches_fresh_mining() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        for alpha in [0.0, 0.3, 0.7, 1.2] {
            let answer = tree.query_by_alpha(alpha);
            let mined = TcfiMiner::default().mine(&net, alpha);
            assert_eq!(answer.retrieved_nodes, mined.np(), "alpha = {alpha}");
            // Compare edge sets pattern by pattern.
            let mut got: Vec<_> = answer
                .trusses
                .iter()
                .map(|t| (t.pattern.clone(), t.edges.clone()))
                .collect();
            got.sort();
            let mut want: Vec<_> = mined
                .trusses
                .iter()
                .map(|t| (t.pattern.clone(), t.edges.clone()))
                .collect();
            want.sort();
            assert_eq!(got, want, "alpha = {alpha}");
        }
    }

    #[test]
    fn qba_above_upper_bound_is_empty() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let bound = tree.alpha_upper_bound();
        let r = tree.query_by_alpha(bound);
        assert_eq!(r.retrieved_nodes, 0, "α* is exclusive");
        let r2 = tree.query_by_alpha(bound + 1.0);
        assert_eq!(r2.retrieved_nodes, 0);
    }

    #[test]
    fn qbp_returns_subpatterns_only() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let ia = net.item_space().get("a").unwrap();
        let ib = net.item_space().get("b").unwrap();
        let q = Pattern::new(vec![ia, ib]);
        let r = tree.query_by_pattern(&q);
        // Sub-patterns of {a,b}: {a}, {b}, {a,b} — all qualified here.
        assert_eq!(r.retrieved_nodes, 3);
        for t in &r.trusses {
            assert!(t.pattern.is_subset_of(&q), "{} ⊄ {}", t.pattern, q);
        }
    }

    #[test]
    fn qbp_singleton() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let ic = net.item_space().get("c").unwrap();
        let r = tree.query_by_pattern(&Pattern::singleton(ic));
        assert_eq!(r.retrieved_nodes, 1);
        assert_eq!(r.trusses[0].pattern, Pattern::singleton(ic));
    }

    #[test]
    fn qbp_unknown_item_is_empty() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let r = tree.query_by_pattern(&Pattern::singleton(tc_txdb::Item(77)));
        assert_eq!(r.retrieved_nodes, 0);
        assert!(r.trusses.is_empty());
    }

    #[test]
    fn empty_query_pattern_returns_nothing() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let r = tree.query(&Pattern::empty(), 0.0);
        assert_eq!(r.retrieved_nodes, 0);
        // Root's children all branch on items ∉ ∅.
        assert!(r.visited_nodes > 0);
    }

    #[test]
    fn pruning_skips_subtrees() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let ia = net.item_space().get("a").unwrap();
        let r = tree.query(&Pattern::singleton(ia), 0.0);
        // Visits the 3 level-1 children; only {a} retrieved, whose children
        // branch on b/c ∉ q. Visited = 3 (level 1) + |children of {a}|.
        assert_eq!(r.retrieved_nodes, 1);
        assert!(r.visited_nodes < tree.num_nodes() + 1);
    }

    #[test]
    fn communities_from_query() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let r = tree.query_by_alpha(0.0);
        let cs = r.communities();
        // {a}: 2 triangles, {b}: 2, {c}: 2, {a,b}: 1, {b,c}: 1, {a,c}: 1.
        assert_eq!(cs.len(), 9);
    }

    #[test]
    fn vertex_query_matches_direct_search() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        for v in [0u32, 2, 6] {
            for alpha in [0.0, 0.5] {
                let via_tree = tree.query_vertex(v, alpha);
                // Compare against the non-indexed search for every pattern
                // the tree knows about.
                for (pattern, community) in &via_tree {
                    let direct = tc_core::community_of_vertex(&net, v, pattern, alpha).unwrap();
                    assert_eq!(&direct, community, "v={v}, α={alpha}, {pattern}");
                }
                // And completeness: every indexed pattern whose community
                // contains v is reported.
                for node in tree.nodes().iter().skip(1) {
                    if let Some(direct) =
                        tc_core::community_of_vertex(&net, v, node.pattern(), alpha)
                    {
                        assert!(
                            via_tree
                                .iter()
                                .any(|(p, c)| p == node.pattern() && c == &direct),
                            "missing ({}, v={v})",
                            node.pattern()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vertex_query_is_unchanged_by_the_alpha_bound_prune() {
        // Every node's community holding v, in arena (= BFS) order, with
        // no pruning at all: what the walk must still answer.
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let scan = |v, alpha| -> Vec<_> {
            tree.nodes()[1..]
                .iter()
                .flat_map(|node| {
                    extract_communities(&node.truss.truss_at(alpha))
                        .into_iter()
                        .filter(|c| c.vertices.binary_search(&v).is_ok())
                        .map(|c| (node.pattern().clone(), c))
                })
                .collect()
        };
        let mut alphas = vec![0.0, tree.alpha_upper_bound() + 1.0];
        alphas.extend(tree.nodes()[1..].iter().filter_map(|n| n.truss.max_alpha()));
        for alpha in alphas {
            for v in 0..net.num_vertices() as u32 {
                assert_eq!(
                    tree.query_vertex(v, alpha),
                    scan(v, alpha),
                    "v={v}, α={alpha}"
                );
            }
        }
    }

    #[test]
    fn vertex_query_unknown_vertex_is_empty() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        assert!(tree.query_vertex(999, 0.0).is_empty());
    }

    #[test]
    fn alpha_monotonicity_of_rn() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let mut prev = usize::MAX;
        for alpha in [0.0, 0.2, 0.5, 0.9, 1.3] {
            let rn = tree.query_by_alpha(alpha).retrieved_nodes;
            assert!(rn <= prev, "RN must not grow with α");
            prev = rn;
        }
    }
}
