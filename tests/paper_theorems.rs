//! Executable versions of the paper's formal results.
//!
//! Each test reconstructs a theorem's statement on concrete instances:
//! Theorem 3.8 (the #P-hardness reduction, run literally), Theorem 5.1
//! (graph anti-monotonicity), Proposition 5.2 (pattern anti-monotonicity),
//! Proposition 5.3 (graph intersection), Theorem 6.1 (decomposition
//! shrinkage) and Equation 1 (reconstruction).

use theme_communities::core::{
    maximal_pattern_truss, DatabaseNetwork, DatabaseNetworkBuilder, Miner, TcfiMiner, ThemeNetwork,
    TrussDecomposition,
};
use theme_communities::txdb::{frequent_patterns, Item, Pattern, TransactionDb};

/// A moderately rich fixture: 10 vertices, three overlapping item groups.
fn fixture() -> DatabaseNetwork {
    let mut b = DatabaseNetworkBuilder::new();
    let x = b.intern_item("x");
    let y = b.intern_item("y");
    let z = b.intern_item("z");
    // Cluster A (0-3): {x,y} freq 0.75, {x} 1.0.
    for v in 0..4u32 {
        for _ in 0..3 {
            b.add_transaction(v, &[x, y]);
        }
        b.add_transaction(v, &[x]);
    }
    // Cluster B (3-6): {y,z}; vertex 3 is shared.
    for v in 3..7u32 {
        for _ in 0..3 {
            b.add_transaction(v, &[y, z]);
        }
        b.add_transaction(v, &[z]);
    }
    // Cluster C (7-9): {x,z}.
    for v in 7..10u32 {
        for _ in 0..4 {
            b.add_transaction(v, &[x, z]);
        }
    }
    for (u, v) in [
        (0, 1),
        (1, 2),
        (0, 2),
        (2, 3),
        (1, 3),
        (0, 3), // K4-ish on A
        (3, 4),
        (4, 5),
        (3, 5),
        (5, 6),
        (4, 6),
        (3, 6), // cluster B
        (7, 8),
        (8, 9),
        (7, 9), // triangle C
        (6, 7), // bridge
    ] {
        b.add_edge(u, v);
    }
    b.build().unwrap()
}

// ---------------------------------------------------------------- Thm 3.8

/// Theorem 3.8's reduction, executed: build the 3-vertex triangle network
/// where every vertex carries a copy of `d`; the number of theme
/// communities equals the number of frequent patterns of `d`.
#[test]
fn theorem_3_8_reduction_from_fpc() {
    let transactions: Vec<Vec<Item>> = vec![
        vec![Item(0), Item(1)],
        vec![Item(1), Item(2)],
        vec![Item(0), Item(1), Item(2)],
        vec![Item(0)],
    ];
    let d = TransactionDb::from_transactions(transactions.iter().cloned());

    for alpha in [0.0, 0.2, 0.25, 0.5, 0.6, 0.75] {
        // FPC oracle side: the patterns of `d` with `f(p) > alpha`.
        let fpc = frequent_patterns(&d, alpha, usize::MAX).len() as u64;

        // Reduction side: triangle network, every vertex holds a copy of d.
        let mut b = DatabaseNetworkBuilder::new();
        for i in 0..3u32 {
            b.intern_item(&format!("s{i}"));
        }
        for v in 0..3u32 {
            for t in &transactions {
                b.add_transaction(v, t);
            }
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        let net = b.build().unwrap();

        // All theme communities at threshold alpha.
        let result = TcfiMiner::default().mine(&net, alpha);
        let communities = result.communities();

        assert_eq!(
            communities.len() as u64,
            fpc,
            "reduction mismatch at alpha = {alpha}: {} communities vs {} frequent patterns",
            communities.len(),
            fpc
        );
        // And each community is the full triangle (f1 = f2 = f3 = f(p)).
        for c in &communities {
            assert_eq!(c.vertices, vec![0, 1, 2]);
        }
    }
}

// ---------------------------------------------------------------- Thm 5.1

#[test]
fn theorem_5_1_graph_anti_monotonicity() {
    let net = fixture();
    let space = net.item_space();
    let x = space.get("x").unwrap();
    let y = space.get("y").unwrap();
    let z = space.get("z").unwrap();
    let patterns = [
        (Pattern::singleton(x), Pattern::new(vec![x, y])),
        (Pattern::singleton(y), Pattern::new(vec![x, y])),
        (Pattern::singleton(z), Pattern::new(vec![y, z])),
        (Pattern::new(vec![x, y]), Pattern::new(vec![x, y, z])),
    ];
    for alpha in [0.0, 0.3, 0.75, 1.5] {
        for (p1, p2) in &patterns {
            assert!(p1.is_subset_of(p2));
            let c1 = maximal_pattern_truss(&ThemeNetwork::induce(&net, p1), alpha);
            let c2 = maximal_pattern_truss(&ThemeNetwork::induce(&net, p2), alpha);
            assert!(
                c2.is_subgraph_of(&c1),
                "C*_{{{p2}}}({alpha}) ⊄ C*_{{{p1}}}({alpha})"
            );
        }
    }
}

// --------------------------------------------------------------- Prop 5.2

#[test]
fn proposition_5_2_pattern_anti_monotonicity() {
    let net = fixture();
    let result = TcfiMiner::default().mine(&net, 0.5);
    // (1) qualified pattern ⇒ every nonempty sub-pattern qualified.
    for truss in &result.trusses {
        for sub in truss.pattern.k_minus_one_subsets() {
            if sub.is_empty() {
                continue;
            }
            assert!(
                result.truss_of(&sub).is_some(),
                "{} qualified but sub-pattern {} is not",
                truss.pattern,
                sub
            );
        }
    }
    // (2) unqualified pattern ⇒ every super-pattern unqualified.
    let space = net.item_space();
    let items: Vec<Item> = space.items().collect();
    for &a in &items {
        let pa = Pattern::singleton(a);
        if result.truss_of(&pa).is_none() {
            for &b2 in &items {
                let sup = pa.with_item(b2);
                assert!(
                    result.truss_of(&sup).is_none(),
                    "{pa} unqualified but {sup} qualified"
                );
            }
        }
    }
}

// --------------------------------------------------------------- Prop 5.3

#[test]
fn proposition_5_3_graph_intersection() {
    let net = fixture();
    let space = net.item_space();
    let x = space.get("x").unwrap();
    let y = space.get("y").unwrap();
    let z = space.get("z").unwrap();
    for alpha in [0.0, 0.3, 0.75] {
        let cx = maximal_pattern_truss(&ThemeNetwork::induce(&net, &Pattern::singleton(x)), alpha);
        let cy = maximal_pattern_truss(&ThemeNetwork::induce(&net, &Pattern::singleton(y)), alpha);
        let cxy = maximal_pattern_truss(
            &ThemeNetwork::induce(&net, &Pattern::new(vec![x, y])),
            alpha,
        );
        let inter = cx.intersect_edges(&cy);
        for e in &cxy.edges {
            assert!(inter.contains(e), "edge {e:?} of C*_xy outside Cx ∩ Cy");
        }
        // Also the three-way case via {x,z}.
        let cz = maximal_pattern_truss(&ThemeNetwork::induce(&net, &Pattern::singleton(z)), alpha);
        let cxz = maximal_pattern_truss(
            &ThemeNetwork::induce(&net, &Pattern::new(vec![x, z])),
            alpha,
        );
        let inter_xz = cx.intersect_edges(&cz);
        for e in &cxz.edges {
            assert!(inter_xz.contains(e));
        }
    }
}

// ---------------------------------------------------------------- Thm 6.1

#[test]
fn theorem_6_1_shrinkage_at_min_cohesion() {
    let net = fixture();
    let space = net.item_space();
    for name in ["x", "y", "z"] {
        let p = Pattern::singleton(space.get(name).unwrap());
        let theme = ThemeNetwork::induce(&net, &p);
        let d = TrussDecomposition::decompose(&theme);
        if d.is_empty() {
            continue;
        }
        // For consecutive levels: C*(α_k) ⊂ C*(α_{k-1}) strictly.
        let mut prev = d.truss_at(0.0);
        for level in &d.levels {
            let cur = d.truss_at(level.alpha);
            assert!(cur.num_edges() < prev.num_edges(), "strict shrink");
            assert!(cur.is_subgraph_of(&prev));
            prev = cur;
        }
        // Below the first level's β, the truss must NOT shrink (Theorem 6.1
        // says shrinkage happens only at α ≥ β).
        let beta = d.levels[0].alpha;
        let just_below = d.truss_at(beta - 1e-6);
        assert_eq!(just_below.num_edges(), d.truss_at(0.0).num_edges());
    }
}

// ------------------------------------------------------------- Equation 1

#[test]
fn equation_1_reconstruction_equals_direct_mptd() {
    let net = fixture();
    let space = net.item_space();
    for name in ["x", "y", "z"] {
        let p = Pattern::singleton(space.get(name).unwrap());
        let theme = ThemeNetwork::induce(&net, &p);
        let d = TrussDecomposition::decompose(&theme);
        for alpha in [0.0, 0.1, 0.4, 0.75, 1.0, 1.9, 3.0] {
            let reconstructed = d.edges_at(alpha);
            let direct = maximal_pattern_truss(&theme, alpha);
            assert_eq!(reconstructed, direct.edges, "{name} at alpha = {alpha}");
        }
    }
}

// ------------------------------------------------- §3.2 degeneration notes

#[test]
fn pattern_truss_degenerates_to_ktruss_and_kcore() {
    // All frequencies 1 and α = k - 3 ⇒ pattern truss = k-truss; connected
    // maximal pattern trusses are (k-1)-cores.
    let mut b = DatabaseNetworkBuilder::new();
    let p = b.intern_item("p");
    for v in 0..7u32 {
        b.add_transaction(v, &[p]);
    }
    // K5 plus a tail triangle.
    for u in 0..5u32 {
        for v in (u + 1)..5 {
            b.add_edge(u, v);
        }
    }
    b.add_edge(4, 5).add_edge(5, 6).add_edge(4, 6);
    let net = b.build().unwrap();
    let pat = Pattern::singleton(p);
    let theme = ThemeNetwork::induce(&net, &pat);

    for k in 3..=5usize {
        let truss = maximal_pattern_truss(&theme, k as f64 - 3.0);
        let classic = theme_communities::graph::k_truss(net.graph(), k);
        assert_eq!(truss.edges, classic, "k = {k}");

        // Every vertex of the k-truss lies in the (k-1)-core.
        let cores = theme_communities::graph::core_numbers(net.graph());
        for &v in &truss.vertices {
            assert!(cores[v as usize] as usize >= k - 1);
        }
    }
}
