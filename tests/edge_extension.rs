//! Property tests for the §8 edge-database-network extension, validated
//! against a definitional fixpoint oracle written independently here.

use proptest::prelude::*;
use theme_communities::core::{
    maximal_pattern_truss, DatabaseNetworkBuilder, EdgeDatabaseNetwork, EdgeDatabaseNetworkBuilder,
    Miner, ParallelTcfiMiner, TcfiMiner, ThemeSource,
};
use theme_communities::graph::EdgeKey;
use theme_communities::txdb::{Item, Pattern};

/// Brute-force oracle: fixpoint removal of edges with cohesion ≤ α, where
/// cohesion sums `min(f_ij, f_ik, f_jk)` over triangles fully inside the
/// surviving themed edge set. Recomputed from scratch every round.
fn oracle_truss(net: &EdgeDatabaseNetwork, pattern: &Pattern, alpha: f64) -> Vec<EdgeKey> {
    let mut current: Vec<EdgeKey> = net
        .edges()
        .iter()
        .copied()
        .filter(|&(u, v)| net.frequency(u, v, pattern) > 0.0)
        .collect();
    loop {
        let set: std::collections::HashSet<EdgeKey> = current.iter().copied().collect();
        let freq = |u: u32, v: u32| net.frequency(u, v, pattern);
        let survivors: Vec<EdgeKey> = current
            .iter()
            .copied()
            .filter(|&(u, v)| {
                // Enumerate triangles through (u, v) within `set`.
                let mut eco = 0.0;
                let verts: std::collections::HashSet<u32> =
                    set.iter().flat_map(|&(a, b)| [a, b]).collect();
                for &w in &verts {
                    if w == u || w == v {
                        continue;
                    }
                    let e1 = theme_communities::graph::edge_key(u, w);
                    let e2 = theme_communities::graph::edge_key(v, w);
                    if set.contains(&e1) && set.contains(&e2) {
                        eco += freq(u, v).min(freq(e1.0, e1.1)).min(freq(e2.0, e2.1));
                    }
                }
                eco > alpha + 1e-9
            })
            .collect();
        if survivors.len() == current.len() {
            return survivors;
        }
        current = survivors;
    }
}

/// Strategy: a random small edge database network over 6 vertices and 3
/// items; each candidate edge gets 1-4 transactions of 1-2 items.
fn arb_edge_network() -> impl Strategy<Value = EdgeDatabaseNetwork> {
    prop::collection::vec(
        (
            (0u32..6, 0u32..6),
            prop::collection::vec(prop::collection::vec(0u32..3, 1..3), 1..5),
        ),
        1..14,
    )
    .prop_map(|edges| {
        let mut b = EdgeDatabaseNetworkBuilder::new();
        for i in 0..3 {
            b.intern_item(&format!("e{i}"));
        }
        for ((u, v), transactions) in edges {
            if u == v {
                continue;
            }
            for t in transactions {
                let items: Vec<Item> = t.into_iter().map(Item).collect();
                b.add_transaction(u, v, &items);
            }
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edge_truss_matches_oracle(net in arb_edge_network(), alpha in 0.0f64..1.2) {
        for item in net.items_in_use() {
            let p = Pattern::singleton(item);
            let fast = net.maximal_edge_pattern_truss(&p, alpha, None);
            let mut brute = oracle_truss(&net, &p, alpha);
            brute.sort_unstable();
            prop_assert_eq!(fast.edges, brute, "item {} alpha {}", item, alpha);
        }
    }

    #[test]
    fn edge_miner_matches_oracle_per_pattern(net in arb_edge_network(), alpha in 0.0f64..0.8) {
        let result = TcfiMiner::default().mine(&net, alpha);
        // Every reported truss equals the oracle.
        for truss in &result.trusses {
            let mut brute = oracle_truss(&net, &truss.pattern, alpha);
            brute.sort_unstable();
            prop_assert_eq!(&truss.edges, &brute, "pattern {}", &truss.pattern);
        }
        // Completeness over all 2^3 - 1 patterns.
        for mask in 1u32..8 {
            let p: Pattern = (0..3u32)
                .filter(|i| mask & (1 << i) != 0)
                .map(Item)
                .collect();
            let brute = oracle_truss(&net, &p, alpha);
            let reported = result.truss_of(&p);
            prop_assert_eq!(
                reported.map(|t| t.num_edges()).unwrap_or(0),
                brute.len(),
                "pattern {} alpha {}", &p, alpha
            );
        }
    }

    #[test]
    fn edge_parallel_miner_matches_serial_and_oracle(
        net in arb_edge_network(),
        alpha in 0.0f64..0.8,
    ) {
        let serial = TcfiMiner::default().mine(&net, alpha);
        for threads in [1, 2, 4] {
            let parallel = ParallelTcfiMiner { max_len: usize::MAX, threads }.mine(&net, alpha);
            prop_assert!(serial.same_trusses(&parallel), "threads {}", threads);
            // Sound and complete against the oracle over all 2^3 - 1 patterns.
            for mask in 1u32..8 {
                let p: Pattern = (0..3u32)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(Item)
                    .collect();
                let mut brute = oracle_truss(&net, &p, alpha);
                brute.sort_unstable();
                let reported = parallel.truss_of(&p).map(|t| t.edges.clone()).unwrap_or_default();
                prop_assert_eq!(reported, brute, "pattern {} threads {}", &p, threads);
            }
        }
    }

    /// With every frequency 1 a triangle weighs 1 whichever element holds
    /// the databases, so an edge network and a vertex network over one graph
    /// must agree at every α — on the k-truss (α = k - 3), the twin of
    /// `paper_theorems.rs::pattern_truss_degenerates_to_ktruss_and_kcore`.
    /// Fails if the two triangle weights of the peeling engine drift apart.
    #[test]
    fn unit_frequencies_make_both_networks_the_ktruss(
        edges in prop::collection::vec((0u32..8, 0u32..8), 1..28),
    ) {
        let mut on_vertices = DatabaseNetworkBuilder::new();
        let mut on_edges = EdgeDatabaseNetworkBuilder::new();
        let x = on_vertices.intern_item("x");
        on_edges.intern_item("x");
        for v in 0..8 {
            on_vertices.add_transaction(v, &[x]);
        }
        for (u, v) in edges.into_iter().filter(|(u, v)| u != v) {
            on_vertices.add_edge(u, v);
            on_edges.add_transaction(u, v, &[x]);
        }
        let (on_vertices, on_edges) = (on_vertices.build().unwrap(), on_edges.build().unwrap());
        let p = Pattern::singleton(x);
        for k in 3..=7usize {
            for alpha in [k as f64 - 3.0, k as f64 - 2.5] {
                let by_vertex = maximal_pattern_truss(&on_vertices.theme(&p), alpha);
                let by_edge = maximal_pattern_truss(&on_edges.theme(&p), alpha);
                prop_assert_eq!(&by_vertex.edges, &by_edge.edges, "alpha {}", alpha);
                let classic = theme_communities::graph::k_truss(on_vertices.graph(), k);
                prop_assert_eq!(&by_edge.edges, &classic, "k {} alpha {}", k, alpha);
            }
        }
    }

    #[test]
    fn edge_graph_anti_monotonicity(net in arb_edge_network(), alpha in 0.0f64..0.8) {
        let items = net.items_in_use();
        for &a in &items {
            for &b in &items {
                if a >= b { continue; }
                let ca = net.maximal_edge_pattern_truss(&Pattern::singleton(a), alpha, None);
                let cab = net.maximal_edge_pattern_truss(&Pattern::new(vec![a, b]), alpha, None);
                prop_assert!(cab.is_subgraph_of(&ca), "Theorem 5.1 lift");
            }
        }
    }

    #[test]
    fn edge_alpha_monotonicity(net in arb_edge_network()) {
        for item in net.items_in_use() {
            let p = Pattern::singleton(item);
            let mut prev = usize::MAX;
            for alpha in [0.0, 0.2, 0.5, 1.0] {
                let t = net.maximal_edge_pattern_truss(&p, alpha, None);
                prop_assert!(t.num_edges() <= prev, "truss must shrink with alpha");
                prev = t.num_edges();
            }
        }
    }
}
