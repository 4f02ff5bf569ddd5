//! TC-Trees over **edge database networks** — the second half of the
//! paper's §8 future work ("extend TCFI *and TC-Tree* …"), as tests.
//!
//! There is nothing to build here: [`TcTreeBuilder`] takes any
//! `ThemeSource`, and a node's decomposed truss `L_p` is a level list of
//! `(α_k, edge set)` whichever element holds the databases, so the tree an
//! edge network yields answers QBA/QBP queries and round-trips through the
//! persistence format unchanged. These tests hold it to that.

mod tests {
    use crate::{TcTree, TcTreeBuilder};
    use tc_core::{EdgeDatabaseNetwork, EdgeDatabaseNetworkBuilder, Miner, TcfiMiner};

    /// Two triangles: one whose conversations are about {a, b}, one about
    /// {b, c}, bridged by a theme-less edge.
    fn network() -> EdgeDatabaseNetwork {
        let mut b = EdgeDatabaseNetworkBuilder::new();
        let ia = b.intern_item("a");
        let ib = b.intern_item("b");
        let ic = b.intern_item("c");
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            for _ in 0..4 {
                b.add_transaction(u, v, &[ia, ib]);
            }
        }
        for (u, v) in [(3, 4), (4, 5), (3, 5)] {
            for _ in 0..4 {
                b.add_transaction(u, v, &[ib, ic]);
            }
        }
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn tree_indexes_every_qualified_edge_pattern() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let mined = TcfiMiner::default().mine(&net, 0.0);
        assert_eq!(tree.num_nodes(), mined.np());
        // {a}, {b}, {c}, {a,b}, {b,c} — never {a,c} or {a,b,c}.
        assert_eq!(tree.num_nodes(), 5);
    }

    #[test]
    fn queries_match_fresh_edge_mining() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        for alpha in [0.0, 0.5, 0.9, 1.5] {
            let mined = TcfiMiner::default().mine(&net, alpha);
            let answered = tree.query_by_alpha(alpha);
            assert_eq!(answered.retrieved_nodes, mined.np(), "alpha = {alpha}");
            let mut got: Vec<_> = answered
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
    fn persistence_roundtrip() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        let mut buf = Vec::new();
        tree.save(&mut buf).unwrap();
        let loaded = TcTree::load(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.num_nodes(), tree.num_nodes());
        for alpha in [0.0, 0.5, 1.0] {
            assert_eq!(
                loaded.query_by_alpha(alpha).retrieved_nodes,
                tree.query_by_alpha(alpha).retrieved_nodes
            );
        }
    }

    #[test]
    fn single_vs_multi_thread_builds_agree() {
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
        let p1: Vec<_> = t1.nodes().iter().map(|n| n.pattern().clone()).collect();
        let p4: Vec<_> = t4.nodes().iter().map(|n| n.pattern().clone()).collect();
        assert_eq!(p1, p4);
        let saved = |tree: &TcTree| {
            let mut buf = Vec::new();
            tree.save(&mut buf).unwrap();
            buf
        };
        assert_eq!(saved(&t1), saved(&t4), "byte-identical at any thread count");
    }

    #[test]
    fn decomposition_levels_reconstruct_edge_trusses() {
        let net = network();
        let tree = TcTreeBuilder::default().build(&net);
        for node in tree.nodes().iter().skip(1) {
            for alpha in [0.0, 0.3, 0.8, 1.2] {
                let reconstructed = node.truss.edges_at(alpha);
                let direct = net.maximal_edge_pattern_truss(node.pattern(), alpha, None);
                assert_eq!(reconstructed, direct.edges, "{} at {alpha}", node.pattern());
            }
        }
    }

    #[test]
    fn empty_network_builds_root_only() {
        let net = EdgeDatabaseNetworkBuilder::new().build().unwrap();
        let tree = TcTreeBuilder::default().build(&net);
        assert_eq!(tree.num_nodes(), 0);
    }
}
