//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use tc_graph::ktruss::edge_set_vertices;
use tc_graph::{
    bfs_edge_sample, connected_components, core_numbers, count_triangles, edge_support, k_truss,
    truss_numbers, EdgeKey, GraphBuilder, UGraph, VertexId,
};

/// Strategy: a random simple graph with up to `n` vertices and `m` candidate
/// edges (duplicates and orientation noise included on purpose — the builder
/// must canonicalise).
fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = UGraph> {
    prop::collection::vec((0..n, 0..n), 0..m).prop_map(move |pairs| {
        let mut b = GraphBuilder::new();
        b.ensure_vertex(0);
        for (u, v) in pairs {
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adjacency_is_symmetric(g in arb_graph(30, 120)) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
            prop_assert!(g.neighbors(u).contains(&v));
            prop_assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn neighbor_lists_sorted_unique(g in arb_graph(30, 120)) {
        for v in 0..g.num_vertices() as u32 {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            prop_assert!(!ns.contains(&v), "no self loops");
        }
    }

    #[test]
    fn degree_sum_is_twice_edges(g in arb_graph(40, 150)) {
        let sum: usize = (0..g.num_vertices() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }

    #[test]
    fn triangle_count_matches_brute_force(g in arb_graph(14, 50)) {
        let n = g.num_vertices() as u32;
        let mut brute = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                for w in (v + 1)..n {
                    if g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w) {
                        brute += 1;
                    }
                }
            }
        }
        prop_assert_eq!(count_triangles(&g), brute);
    }

    #[test]
    fn edge_support_matches_brute_force(g in arb_graph(14, 50)) {
        for (u, v) in g.edges() {
            let brute = (0..g.num_vertices() as u32)
                .filter(|&w| w != u && w != v && g.has_edge(u, w) && g.has_edge(v, w))
                .count();
            prop_assert_eq!(edge_support(&g, u, v), brute);
        }
    }

    #[test]
    fn ktruss_every_edge_has_enough_support(g in arb_graph(16, 60), k in 3usize..6) {
        let edges = k_truss(&g, k);
        // Re-check support *within the truss*.
        let sub = UGraph::from_edges(edges.iter().copied());
        for &(u, v) in &edges {
            prop_assert!(
                edge_support(&sub, u, v) >= k - 2,
                "edge ({u},{v}) support below k-2 inside the {k}-truss"
            );
        }
    }

    #[test]
    fn ktruss_shrinks_with_k(g in arb_graph(16, 60)) {
        let mut prev = g.num_edges();
        for k in 2..7 {
            let t = k_truss(&g, k).len();
            prop_assert!(t <= prev, "k-truss must shrink as k grows");
            prev = t;
        }
    }

    #[test]
    fn truss_numbers_consistent(g in arb_graph(12, 40)) {
        let tn = truss_numbers(&g);
        for k in 2..6usize {
            let direct: std::collections::BTreeSet<_> = k_truss(&g, k).into_iter().collect();
            let derived: std::collections::BTreeSet<_> =
                tn.iter().filter(|&(_, &t)| t >= k).map(|(&e, _)| e).collect();
            prop_assert_eq!(&direct, &derived, "k = {}", k);
        }
    }

    #[test]
    fn components_agree_with_reachability(g in arb_graph(20, 60)) {
        let c = connected_components(&g);
        // BFS reachability from each vertex must equal its label class.
        for (u, v) in g.edges() {
            prop_assert_eq!(c.labels[u as usize], c.labels[v as usize]);
        }
        let groups = c.groups();
        let total: usize = groups.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn core_numbers_at_most_degree(g in arb_graph(25, 80)) {
        let cores = core_numbers(&g);
        for v in 0..g.num_vertices() as u32 {
            prop_assert!(cores[v as usize] as usize <= g.degree(v));
        }
    }

    #[test]
    fn kcore_internal_degree_invariant(g in arb_graph(20, 70), k in 1u32..4) {
        let verts = tc_graph::k_core(&g, k);
        let set: std::collections::HashSet<_> = verts.iter().copied().collect();
        for &v in &verts {
            let internal = g.neighbors(v).iter().filter(|w| set.contains(w)).count();
            prop_assert!(internal >= k as usize, "vertex {v} has internal degree {internal} < {k}");
        }
    }

    #[test]
    fn sample_is_valid_subgraph(g in arb_graph(30, 120), target in 1usize..50) {
        let edges = bfs_edge_sample(&g, 0, target);
        for &(u, v) in &edges {
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn induced_subgraph_preserves_internal_edges(g in arb_graph(20, 60)) {
        let pick: Vec<u32> = (0..g.num_vertices() as u32).filter(|v| v % 2 == 0).collect();
        let (sub, map) = g.induced_subgraph(&pick);
        // Every sub edge maps to a real edge.
        for (a, b) in sub.edges() {
            prop_assert!(g.has_edge(map[a as usize], map[b as usize]));
        }
        // Every internal edge of the selection appears.
        let set: std::collections::HashSet<_> = pick.iter().copied().collect();
        let internal = g
            .edges()
            .filter(|(u, v)| set.contains(u) && set.contains(v))
            .count();
        prop_assert_eq!(sub.num_edges(), internal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clustering_coefficients_in_unit_interval(g in arb_graph(25, 80)) {
        for v in 0..g.num_vertices() as u32 {
            let c = tc_graph::metrics::local_clustering(&g, v);
            prop_assert!((0.0..=1.0).contains(&c), "c({v}) = {c}");
        }
        let avg = tc_graph::average_clustering(&g);
        prop_assert!((0.0..=1.0).contains(&avg));
        let t = tc_graph::transitivity(&g);
        prop_assert!((0.0..=1.0).contains(&t), "transitivity {t}");
    }

    #[test]
    fn degree_histogram_sums_to_vertex_count(g in arb_graph(25, 80)) {
        let hist = tc_graph::degree_histogram(&g);
        prop_assert_eq!(hist.iter().sum::<usize>(), g.num_vertices());
        // Weighted sum = total degree = 2m.
        let total: usize = hist.iter().enumerate().map(|(d, &n)| d * n).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn local_clustering_matches_bruteforce(g in arb_graph(12, 40)) {
        for v in 0..g.num_vertices() as u32 {
            let ns = g.neighbors(v);
            if ns.len() < 2 { continue; }
            let mut closed = 0;
            for i in 0..ns.len() {
                for j in (i + 1)..ns.len() {
                    if g.has_edge(ns[i], ns[j]) {
                        closed += 1;
                    }
                }
            }
            let expect = closed as f64 / (ns.len() * (ns.len() - 1) / 2) as f64;
            let got = tc_graph::metrics::local_clustering(&g, v);
            prop_assert!((got - expect).abs() < 1e-12, "v={v}: {got} vs {expect}");
        }
    }
}

/// `edge_set_vertices`' definition: the `2·|E|` endpoints, sorted and
/// deduplicated — the sort the bitmap regime replaces, kept as its oracle.
fn sorted_endpoints(edges: &[EdgeKey]) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    vs.sort_unstable();
    vs.dedup();
    vs
}

/// A canonical, sorted, duplicate-free edge set: each pair of offsets
/// becomes `(base + min, base + max)`, self-loops dropped.
fn canonical(base: u32, pairs: &[(u32, u32)]) -> Vec<EdgeKey> {
    let set: std::collections::BTreeSet<EdgeKey> = pairs
        .iter()
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| (base + a.min(b), base + a.max(b)))
        .collect();
    set.into_iter().collect()
}

/// Checks `edge_set_vertices` against its definition on `edges` and on
/// the same edges reversed (no caller may rely on the input order).
fn vertices_match(edges: &[EdgeKey]) {
    let want = sorted_endpoints(edges);
    assert_eq!(edge_set_vertices(edges), want, "edges {edges:?}");
    let reversed: Vec<EdgeKey> = edges.iter().rev().copied().collect();
    assert_eq!(edge_set_vertices(&reversed), want, "reversed {edges:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ids from a narrow range at any base up to the top of `u32`: the
    /// range fits in `|E|` words for all but the thinnest draws, so the
    /// bitmap regime runs.
    #[test]
    fn edge_set_vertices_is_the_sorted_endpoints_over_a_narrow_range(
        base in 0..=u32::MAX - 300,
        pairs in prop::collection::vec((0..300u32, 0..300u32), 0..120)
    ) {
        vertices_match(&canonical(base, &pairs));
    }

    /// Ids spread up to `u32::MAX`: the range dwarfs `|E|` words, so the
    /// sort regime runs.
    #[test]
    fn edge_set_vertices_is_the_sorted_endpoints_over_spread_ids(
        pairs in prop::collection::vec((0..=u32::MAX, 0..=u32::MAX), 0..40)
    ) {
        vertices_match(&canonical(0, &pairs));
    }

    /// `m` edges whose ids span `64·m − 2` to `64·m + 1`: the range needs
    /// `m` words on the lower two spans (bitmap) and `m + 1` on the upper
    /// two (sort), so every draw sits on one side of the switch or the
    /// other, a bit away. `m` runs past 64, where the bitmap leaves the
    /// stack for the heap.
    #[test]
    fn edge_set_vertices_is_the_sorted_endpoints_either_side_of_the_switch(
        m in 1..160u32,
        step in 0..4u32,
        base in 0..=u32::MAX - 64 * 161,
        inner in prop::collection::vec((0..=u32::MAX, 0..=u32::MAX), 240)
    ) {
        let span = 64 * m - 2 + step;
        // One edge pins the range; the rest fall inside it, and more are
        // drawn than kept so that duplicates cannot leave fewer than `m`.
        let mut pairs = vec![(0, span)];
        pairs.extend(inner.iter().map(|&(a, b)| (a % (span + 1), b % (span + 1))));
        let mut edges = canonical(base, &pairs);
        let first = edges.iter().position(|&e| e == (base, base + span)).unwrap();
        let pinned = edges.remove(first);
        edges.truncate(m as usize - 1);
        edges.push(pinned);
        edges.sort_unstable();
        if edges.len() == m as usize {
            let words = (span as usize >> 6) + 1;
            prop_assert_eq!(words <= edges.len(), step < 2, "span {} over {} edges", span, m);
        }
        vertices_match(&edges);
    }
}

#[test]
fn edge_set_vertices_at_the_edges_of_its_domain() {
    let top = u32::MAX;
    vertices_match(&[]);
    vertices_match(&[(7, 8)]);
    vertices_match(&[(0, top)]);
    vertices_match(&[(top - 1, top)]);
    vertices_match(&[(0, 1), (top - 1, top)]);
    // Every pair of the top six ids: one word, ending at `u32::MAX`.
    let mut clique = Vec::new();
    for u in top - 5..top {
        for v in u + 1..=top {
            clique.push((u, v));
        }
    }
    vertices_match(&clique);
    // A word boundary just below the top.
    vertices_match(&[(top - 64, top - 63), (top - 63, top), (top - 1, top)]);
}
