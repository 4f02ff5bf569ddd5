//! Maximal Pattern Truss Detector — Algorithm 1 of the paper.
//!
//! Given a theme network `G_p` and a threshold `α`, MPTD removes
//! *unqualified* edges (cohesion `≤ α`) until none remain; the surviving
//! edges form the maximal pattern truss `C*_p(α)` (§4.1 proves this is
//! exactly the union of all pattern trusses at `α`). Cost: one pass lists
//! every edge's triangles (`O(Σ_{(u,v)} d(v))`, within the paper's
//! `O(Σ_{v ∈ V_p} d²(v))`), then peeling is `O(Σ_e t(e))` over the
//! `t(e)` triangles of each edge — see [`crate::peel`]. Inside the lattice
//! walk the listing is the whole network's, done once, and a candidate's
//! state is a mask of it. Both paths peel through the same private step.

use crate::peel::PeelState;
use crate::result::MinerStats;
use crate::theme::ThemeNetwork;
use crate::truss::PatternTruss;
use tc_txdb::Pattern;

/// Runs MPTD on a theme network, returning `C*_p(α)` (possibly empty).
pub fn maximal_pattern_truss(theme: &ThemeNetwork, alpha: f64) -> PatternTruss {
    if theme.is_trivial() {
        return PatternTruss::empty(theme.pattern().clone(), alpha);
    }
    peel_truss(theme.pattern().clone(), &mut PeelState::new(theme), alpha)
}

/// Peels `state`, the theme network of `pattern`, at `alpha` and returns
/// what survives: `C*_p(α)`.
fn peel_truss(pattern: Pattern, state: &mut PeelState, alpha: f64) -> PatternTruss {
    state.peel(alpha, |_| {});
    PatternTruss::from_canonical_edges(pattern, alpha, state.alive_global_edges())
}

/// Runs MPTD on a candidate's theme network and counts it, unless the
/// network has no edge to peel; `None` when the pattern is unqualified.
pub(crate) fn qualified_truss(
    theme: &ThemeNetwork,
    alpha: f64,
    stats: &mut MinerStats,
) -> Option<PatternTruss> {
    if theme.is_trivial() {
        return None;
    }
    let mut state = PeelState::new(theme);
    qualified_peel(theme.pattern().clone(), &mut state, alpha, stats)
}

/// [`qualified_truss`] over `state`, the unpeeled theme network of
/// `pattern`, which it leaves peeled at `alpha`.
pub(crate) fn qualified_peel(
    pattern: Pattern,
    state: &mut PeelState,
    alpha: f64,
    stats: &mut MinerStats,
) -> Option<PatternTruss> {
    if state.num_edges() == 0 {
        return None;
    }
    stats.mptd_calls += 1;
    let truss = peel_truss(pattern, state, alpha);
    (!truss.is_empty()).then_some(truss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{DatabaseNetwork, DatabaseNetworkBuilder};
    use crate::oracle;
    use tc_graph::EdgeKey;

    /// Build a network where item "p" has chosen per-vertex frequencies
    /// (as tenths) and an explicit edge list.
    fn network_with_freqs(tenths: &[u32], edges: &[(u32, u32)]) -> (DatabaseNetwork, Pattern) {
        let mut b = DatabaseNetworkBuilder::new();
        let p = b.intern_item("p");
        let filler = b.intern_item("filler");
        for (v, &t) in tenths.iter().enumerate() {
            for _ in 0..t {
                b.add_transaction(v as u32, &[p]);
            }
            for _ in 0..(10 - t) {
                b.add_transaction(v as u32, &[filler]);
            }
        }
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        let net = b.build().unwrap();
        let pat = Pattern::singleton(net.item_space().get("p").unwrap());
        (net, pat)
    }

    /// The Figure 1(b) theme network: frequencies 0.1 on v1..v5 (0-indexed
    /// 0..4), v5 absent, 0.3 on v6..v8 — with the paper's topology shape.
    fn figure1b() -> (DatabaseNetwork, Pattern) {
        // 9 vertices; v5 (index 5) has f = 0.
        let tenths = [1, 1, 1, 1, 1, 0, 3, 3, 3];
        let edges = [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (0, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (6, 8),
            (7, 8),
        ];
        network_with_freqs(&tenths, &edges)
    }

    #[test]
    fn figure1b_two_trusses_at_small_alpha() {
        let (net, pat) = figure1b();
        let theme = ThemeNetwork::induce(&net, &pat);
        // α ∈ [0, 0.2): the dense cluster {0..4} and the triangle {6,7,8}
        // both survive (paper Example 3.6 reports two theme communities).
        let truss = maximal_pattern_truss(&theme, 0.0);
        assert!(!truss.is_empty());
        assert!(truss.contains_vertex(0));
        assert!(truss.contains_vertex(6));
        assert!(!truss.contains_vertex(5), "zero-frequency vertex excluded");
        // Triangle edges present.
        assert!(truss.contains_edge((6, 7)));
        assert!(truss.contains_edge((7, 8)));
        assert!(truss.contains_edge((6, 8)));
    }

    #[test]
    fn figure1b_truss_vanishes_at_high_alpha() {
        let (net, pat) = figure1b();
        let theme = ThemeNetwork::induce(&net, &pat);
        // Triangle {6,7,8}: each edge eco = 0.3. Cluster: eco ≤ 0.2.
        let t02 = maximal_pattern_truss(&theme, 0.25);
        assert!(!t02.is_empty());
        assert!(t02.contains_vertex(6) && t02.contains_vertex(7) && t02.contains_vertex(8));
        assert!(!t02.contains_vertex(0), "low-frequency cluster peeled");
        let t04 = maximal_pattern_truss(&theme, 0.3);
        assert!(t04.is_empty(), "0.3 ≤ α kills the triangle too");
    }

    #[test]
    fn result_is_a_pattern_truss() {
        // Every surviving edge must have cohesion > α inside the result.
        let (net, pat) = figure1b();
        let theme = ThemeNetwork::induce(&net, &pat);
        for alpha in [0.0, 0.05, 0.1, 0.2, 0.25] {
            let truss = maximal_pattern_truss(&theme, alpha);
            let mut state = PeelState::new(&theme);
            state.peel(alpha, |_| {});
            let cohesions: Vec<(EdgeKey, f64)> = state
                .alive_edge_ids()
                .map(|id| (state.edge(id), state.cohesion(id)))
                .collect();
            assert_eq!(cohesions.len(), truss.num_edges());
            for &(e, eco) in &cohesions {
                assert!(
                    tc_util::float::gt_eps(eco, alpha),
                    "edge {e:?} cohesion {eco} not > {alpha}"
                );
            }
            // Cross-check reported cohesions against a from-scratch
            // recomputation on the surviving subgraph.
            let recomputed = oracle::cohesions_of_edge_set(&net, &pat, &truss.edges);
            for &(e, eco) in &cohesions {
                let r = recomputed[&e];
                assert!((eco - r).abs() < 1e-9, "edge {e:?}: {eco} vs {r}");
            }
        }
    }

    #[test]
    fn matches_bruteforce_oracle() {
        let (net, pat) = figure1b();
        let theme = ThemeNetwork::induce(&net, &pat);
        for alpha in [0.0, 0.1, 0.15, 0.2, 0.3, 0.5] {
            let fast = maximal_pattern_truss(&theme, alpha);
            let brute = oracle::brute_force_truss(&net, &pat, alpha);
            assert_eq!(fast.edges, brute, "alpha = {alpha}");
        }
    }

    #[test]
    fn maximality_adding_any_removed_edge_breaks_trussness() {
        let (net, pat) = figure1b();
        let theme = ThemeNetwork::induce(&net, &pat);
        let alpha = 0.15;
        let truss = maximal_pattern_truss(&theme, alpha);
        let all_edges: Vec<_> = theme
            .graph()
            .edges()
            .map(|e| theme.global_edge(e))
            .collect();
        for &extra in all_edges.iter().filter(|e| !truss.contains_edge(**e)) {
            let mut augmented = truss.edges.clone();
            augmented.push(extra);
            augmented.sort_unstable();
            // The augmented edge set must NOT be a pattern truss: some edge
            // violates eco > α after the fixpoint re-peel.
            let re_peeled = oracle::peel_edge_set(&net, &pat, &augmented, alpha);
            assert!(
                re_peeled.len() <= truss.edges.len(),
                "adding {extra:?} should not enlarge the fixpoint"
            );
        }
    }

    #[test]
    fn unit_frequencies_degenerate_to_ktruss() {
        // Paper §3.2: f ≡ 1 and α = k - 3 makes C_p(α) a k-truss.
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4
            (3, 4),
            (4, 5),
            (3, 5), // dangling triangle
        ];
        let (net, pat) = network_with_freqs(&[10; 6], &edges);
        let theme = ThemeNetwork::induce(&net, &pat);
        for k in 2..=5usize {
            let alpha = k as f64 - 3.0;
            let ours = maximal_pattern_truss(&theme, alpha);
            let classic = tc_graph::k_truss(net.graph(), k);
            assert_eq!(ours.edges, classic, "k = {k}");
        }
    }

    #[test]
    fn empty_theme_network() {
        let (net, _) = figure1b();
        let ghost = Pattern::singleton(tc_txdb::Item(999));
        let theme = ThemeNetwork::induce(&net, &ghost);
        let truss = maximal_pattern_truss(&theme, 0.0);
        assert!(truss.is_empty());
    }

    #[test]
    fn negative_alpha_keeps_triangle_edges_only() {
        // At α slightly below 0, edges in no triangle have eco = 0 > α and
        // survive. At α = 0 they die. (Definition 3.3 uses strict >.)
        let (net, pat) = network_with_freqs(&[10, 10, 10], &[(0, 1), (1, 2), (0, 2)]);
        let theme = ThemeNetwork::induce(&net, &pat);
        let t = maximal_pattern_truss(&theme, -0.5);
        assert_eq!(t.num_edges(), 3);
        // A path has no triangles: at α = 0 everything dies.
        let (net2, pat2) = network_with_freqs(&[10, 10, 10], &[(0, 1), (1, 2)]);
        let theme2 = ThemeNetwork::induce(&net2, &pat2);
        assert!(maximal_pattern_truss(&theme2, 0.0).is_empty());
        assert_eq!(maximal_pattern_truss(&theme2, -0.5).num_edges(), 2);
    }
}
